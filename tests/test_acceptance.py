"""Acceptance criteria.

Each test exercises one exit criterion at its stated tolerance and prints
one "ACCEPTANCE <name>: PASS|FAIL" line (visible with pytest -s; captured
otherwise, shown on failure).
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import jsonschema

from jarscan.classfile import (
    ClassModel,
    FieldModel,
    MethodModel,
    default_constructor,
    emit_class_resolved,
    parse_class,
)
from jarscan.classfile.model import resolved_code
from jarscan.cpg import FixSignature, Triplet, diff
from jarscan.ir import build_cfg, dump, lift, postdominators
from jarscan.kb import KnowledgeBase, build_entry, load, save
from jarscan.modharness import modify
from jarscan.normalize import normalize
from jarscan.scanner import (
    FIXED,
    VULNERABLE,
    ConstructVerdict,
    ScanConfig,
    aggregate,
    match_triplets,
    report_to_json,
    scan_jar_bytes,
)
from corpus import build_corpus
from ir_interp import run_ir
from oracle_interp import run_bytecode
from oracles import (
    brute_control_deps,
    brute_postdominators,
    brute_reaching_edges,
    brute_signature,
    node_sets,
)
from randgen import assemble_method, random_int_method, random_method_ir
from test_dataflow import control_dependent_blocks, reaching_data_edges
from test_normalize import VARIANT_PAIRS, lift_code

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report-schema.json").read_text())


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _validate(report):
    payload = report_to_json(report)
    jsonschema.validate(payload, SCHEMA)
    return payload


def _flagged(result):
    return {f.cve_id for f in result.findings if f.verdict == VULNERABLE}


def _scan(name, jar, kb, config):
    result = scan_jar_bytes(name, jar, kb, config)
    from jarscan.scanner import ScanReport
    _validate(ScanReport(config=config, jars=[result]))
    return result


def test_synthetic_detection_unmodified():
    with criterion("synthetic-detection-unmodified"):
        start = time.perf_counter()
        corpus = build_corpus()
        records = {}
        for cve in corpus.cve_ids:
            pre = [parse_class(b) for _n, b in corpus.pre_classes[cve]]
            post = [parse_class(b) for _n, b in corpus.post_classes[cve]]
            records[cve] = build_entry(cve, pre, post)
        kb = KnowledgeBase(records=records)
        assert len(kb.records) >= 10
        kinds = {r.change for recs in records.values() for r in recs}
        assert kinds == {"added", "removed", "changed"}
        assert any(r.construct.fqn.endswith("<clinit>()")
                   for recs in records.values() for r in recs)

        config = ScanConfig()
        flagged_pre = set()
        for cve in corpus.cve_ids:
            flagged_pre |= _flagged(_scan("pre.jar", corpus.pre_jars[cve], kb, config))
        assert flagged_pre == set(corpus.cve_ids), "pre-fix must flag 10/10"

        flagged_post = set()
        for cve in corpus.cve_ids:
            flagged_post |= _flagged(_scan("post.jar", corpus.post_jars[cve], kb, config))
        assert flagged_post == set(), "post-fix must flag 0/10"

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_type1_robustness(corpus, corpus_kb):
    with criterion("type1-robustness"):
        config = ScanConfig()
        flagged_pre, flagged_post = set(), set()
        for i, cve in enumerate(corpus.cve_ids):
            variant_pre = modify([corpus.pre_jars[cve]], 1, seed=100 + i)
            flagged_pre |= _flagged(_scan("v.jar", variant_pre, corpus_kb, config))
            variant_post = modify([corpus.post_jars[cve]], 1, seed=200 + i)
            flagged_post |= _flagged(_scan("v.jar", variant_post, corpus_kb, config))
        assert flagged_pre == set(corpus.cve_ids), "type-1 pre-fix must flag 10/10"
        assert flagged_post == set(), "type-1 post-fix must flag 0/10"


def test_type2_type3_invariance(corpus, corpus_kb):
    with criterion("type2-type3-invariance"):
        config = ScanConfig(modes=("default",))
        separate = set()
        for cve in corpus.cve_ids:
            res = _scan("sep.jar", corpus.pre_jars[cve], corpus_kb, config)
            for f in res.findings:
                for v in f.constructs:
                    separate.add((f.cve_id, v.fqn, v.change, v.verdict))
        jars = [corpus.pre_jars[c] for c in corpus.cve_ids]
        for kind in (2, 3):
            bundle = modify(jars, kind)
            res = _scan("bundle.jar", bundle, corpus_kb, config)
            got = {(f.cve_id, v.fqn, v.change, v.verdict)
                   for f in res.findings for v in f.constructs}
            assert got == separate, f"type-{kind} bundle verdicts diverged"


def test_type4_detection(corpus, corpus_kb):
    with criterion("type4-detection"):
        config = ScanConfig()  # default thresholds, both modes
        unmodified_flagged = set()
        for cve in corpus.cve_ids:
            unmodified_flagged |= _flagged(
                _scan("u.jar", corpus.pre_jars[cve], corpus_kb, config))

        bundle = modify([corpus.pre_jars[c] for c in corpus.cve_ids], 4, prefix="r.")
        res = _scan("reloc.jar", bundle, corpus_kb, config)
        flagged = _flagged(res)
        assert len(flagged) >= 9, f"only {len(flagged)}/10 relocated CVEs found"
        assert flagged == set(corpus.cve_ids), \
            "class contexts have >= 3 siblings, expect 10/10"
        assert flagged <= unmodified_flagged, \
            "no CVE absent from the unmodified scan may appear"


def test_triplet_algebra_oracle():
    with criterion("triplet-algebra-oracle"):
        rng = random.Random(9001)
        universe = [Triplet(f"s{i}", kind, f"t{j}")
                    for i in range(7) for j in range(7)
                    for kind in ("CFG", "DATA", "CTRL")]
        for _ in range(1000):
            t_vul = frozenset(rng.sample(universe, rng.randint(0, 15)))
            t_fix = frozenset(rng.sample(universe, rng.randint(0, 15)))
            sig = diff(t_vul, t_fix)
            assert (sig.ct, sig.pt, sig.nt) == brute_signature(t_vul, t_fix)
            assert sig.ct | sig.pt == t_fix
            assert sig.ct | sig.nt == t_vul
            assert not (sig.ct & sig.pt or sig.ct & sig.nt or sig.pt & sig.nt)


def test_dataflow_and_control_dependence_oracles():
    with criterion("dataflow-control-oracles"):
        rng = random.Random(4242)
        for _ in range(200):
            ir = random_method_ir(rng, max_blocks=10, registers=4)
            cfg = build_cfg(ir)
            assert reaching_data_edges(ir, cfg) == brute_reaching_edges(ir, cfg)
            assert node_sets(postdominators(cfg)) == brute_postdominators(cfg)
            assert control_dependent_blocks(cfg) == brute_control_deps(cfg)


def test_normalization_criterion(corpus):
    with criterion("normalization"):
        rng = random.Random(31337)
        # Variant corpus converges to identical serialized IR and every
        # member is idempotent; semantics hold on 200 vectors per fixture.
        for name, (a, b) in VARIANT_PAIRS.items():
            ra, rb = lift_code(a), lift_code(b)
            na, nb = normalize(ra), normalize(rb)
            assert dump(na) == dump(nb), name
            assert dump(normalize(na)) == dump(na), name
            for _ in range(200):
                x = rng.randint(-2000, 2000)
                assert run_ir(na, [x]) == run_ir(ra, [x]) == run_ir(rb, [x])
        # Idempotence across every method of every corpus class.
        for side in (corpus.pre_classes, corpus.post_classes):
            for entries in side.values():
                for _name, data in entries:
                    cf = parse_class(data)
                    for m in cf.methods:
                        if m.code is None:
                            continue
                        ir = lift(resolved_code(m, cf.constant_pool))
                        n1 = normalize(ir)
                        assert dump(normalize(n1)) == dump(n1), m.name


def test_decision_rule_conformance():
    with criterion("decision-rule-conformance"):
        T = lambda *ns: frozenset(Triplet(n, "CFG", n) for n in ns)
        config = ScanConfig()
        # |NT ∩ Tm| >= |PT ∩ Tm| boundary: equality means vulnerable.
        sig = FixSignature(ct=T(), pt=T("p1", "p2"), nt=T("n1", "n2"))
        v, _ = match_triplets(T("n1", "n2", "p1", "p2"), sig, config)
        assert v == VULNERABLE
        v, _ = match_triplets(T("n1", "p1", "p2"), sig, config)
        assert v == FIXED  # 1 < 2
        # NT empty: ratio exactly theta_pt (0.5) classifies fixed.
        sig2 = FixSignature(ct=T("c"), pt=T("p1", "p2", "p3", "p4"), nt=T())
        v, _ = match_triplets(T("p1", "p2"), sig2, config)
        assert v == FIXED
        v, _ = match_triplets(T("p1"), sig2, config)
        assert v == VULNERABLE  # 0.25 < 0.5
        # Majority vote: a tie flags the JAR.
        mk = lambda verdict: ConstructVerdict(
            fqn="f", kind="method", change="changed", cve_id="C",
            verdict=verdict, mode="default")
        assert aggregate([mk(VULNERABLE), mk(FIXED)]) == VULNERABLE
        assert aggregate([mk(FIXED), mk(FIXED), mk(VULNERABLE)]) == "not-flagged"


def test_shipped_defaults():
    with criterion("shipped-defaults"):
        config = ScanConfig()
        assert (config.theta_pt, config.theta_cc, config.theta_ct) == (0.5, 0.3, 0.3)


def test_round_trips(tmp_path, corpus_kb):
    with criterion("round-trips"):
        rng = random.Random(777)
        for trial in range(40):
            methods = [default_constructor()]
            for k in range(rng.randint(1, 3)):
                params = rng.randint(1, 3)
                methods.append(MethodModel(
                    f"m{k}", "(" + "I" * params + ")I", 0x09,
                    code=random_int_method(rng, params=params,
                                           segments=rng.randint(1, 6))))
            fields = [FieldModel(f"f{k}", rng.choice(["I", "J", "Z"]))
                      for k in range(rng.randint(0, 2))]
            model = ClassModel(f"acc.R{trial}", fields=fields, methods=methods)
            data, resolved = emit_class_resolved(model)
            cf = parse_class(data)
            assert cf.this_class == model.name
            assert [m.name for m in cf.methods] == [m.name for m in model.methods]
            for parsed, expected in zip(cf.methods, resolved):
                assert parsed.code == expected

        p = tmp_path / "kb.txt"
        save(corpus_kb, p)
        assert load(p) == corpus_kb
