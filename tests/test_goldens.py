"""Pinned digests of what jarscan writes on the synthetic corpus.

A refactor must leave all of them unchanged: the KB file that kb-build
writes, the normalized IR of every liftable method, the JSON scan report
in both modes, the bytes of every JAR the emitter and ``modify`` write
for the ``variant_jars`` fixture, the lifted IR of one method per
mnemonic, and the lifted and normalized IR of methods with exception
handlers. A change that moves one on purpose re-pins it and says why.
"""

import hashlib
import json
import random

from corpus import materialize_manifest
from randgen import random_ref_method
from test_large_methods import try_ranges, wide_handlers

from jarscan.classfile import parse_class
from jarscan.classfile.descriptors import parse_method_descriptor
from jarscan.classfile.emitter import ACC_PUBLIC, ClassModel, MethodModel, emit_class
from jarscan.classfile.model import ACC_STATIC, resolved_code
from jarscan.classfile.opcodes import FORMAT_OF
from jarscan.errors import LiftError
from jarscan.ir import dump, lift
from jarscan.kb import build_from_manifest, load, save
from jarscan.normalize import normalize
from jarscan.scanner import ScanConfig, ScanReport, report_to_json, scan_jar_bytes

# KB format version 2: the body bytes are those of version 1; the header
# and checksum lines differ.
KB_SHA256 = "cdd2038b3ad68f5ef9bdb3f1bff54477b4c81f6203622eced3b1dd779d55de59"
DUMP_SHA256 = "cf411f6d1a237de93c174a077bf86a419bedf67d2f85c3c3cc2588e33a6b43b6"
REPORT_SHA256 = "c13f09a3bda29f47524c74c5ea1581aaa1159eb9b8bebe91c19590c7f22fbe0e"
MNEMONICS_SHA256 = "bc70c84d6dd601d43749796f9385f9e85bc71724b5ed04678277965d6b4f5def"
VARIANT_JARS_SHA256 = "3a30c62829a07dd501578c7677aabd33019dfe212d6a5b746e1bde378283e01d"
HANDLER_DUMP_SHA256 = "8d67d44469bd23d57f1d51f2106fcb8a14e8265ff03eb04a23606de7c5f4aa06"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalized_dumps(corpus) -> str:
    """Every liftable method of every corpus class, pre and post, as the
    ``dump`` of its normalized IR under its class, name and descriptor."""
    out = []
    for cve in corpus.cve_ids:
        for side in (corpus.pre_classes, corpus.post_classes):
            for _name, data in side[cve]:
                cf = parse_class(data)
                for m in cf.methods:
                    if m.code is None:
                        continue
                    try:
                        ir = lift(resolved_code(m, cf.constant_pool))
                    except LiftError:
                        continue
                    out.append(f"{cf.this_class}.{m.name}{m.descriptor}\n"
                               f"{dump(normalize(ir))}")
    return "".join(out)


def test_pinned_goldens(corpus, variant_jars, tmp_path):
    kb_path = tmp_path / "kb.txt"
    built, _stats = build_from_manifest(materialize_manifest(corpus, tmp_path))
    save(built, kb_path)
    kb, config = load(kb_path), ScanConfig()
    report = ScanReport(config, [scan_jar_bytes(name, data, kb, config)
                                 for name, data in sorted(variant_jars.items())])
    text = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    assert '"mode": "repack"' in text
    assert (_sha256(kb_path.read_bytes()),
            _sha256(_normalized_dumps(corpus).encode()),
            _sha256(text.encode())) == (KB_SHA256, DUMP_SHA256, REPORT_SHA256)


# ------------------------------------------ methods with exception handlers

ARITH = "java.lang.ArithmeticException"


def _handler_shapes() -> list[MethodModel]:
    """Static methods whose exception tables take every shape lift and
    normalize carry: one range per handler, many handlers over one range,
    random ranges, nested ranges, one head behind two catch types
    (multi-catch) and behind two ranges (finally), a head inside its own
    range, a range whose code is unreachable, and ranges that nop
    elimination and jump threading shorten, one of them next to a range
    that shares its head."""
    def method(name, code, handlers, desc="(I)I"):
        return MethodModel(name, desc, ACC_PUBLIC | ACC_STATIC, code=code,
                           handlers=list(handlers))

    rng = random.Random(29)
    methods = [method("try_ranges", *try_ranges(50), desc="(I)V"),
               method("wide", *wide_handlers(20)),
               *(random_ref_method(rng, f"random{i}") for i in range(40))]
    divide = lambda d: ["iload_0", ("push_int", d), "idiv", "istore_1"]
    recover = lambda v: ["pop", ("push_int", v), "ireturn"]
    methods.append(method("nested", [
        "O:", "iload_0", ("ifeq", "X"), "I:", *divide(3), "IE:",
        "X:", *divide(5), "OE:", ("goto", "R"),
        "HI:", *recover(1), "HO:", *recover(2), "R:", "iload_1", "ireturn"],
        [("I", "IE", "HI", ARITH), ("O", "OE", "HO", None)]))
    methods.append(method("multi_catch", [
        "S:", *divide(3), "E:", ("goto", "R"), "H:", *recover(1),
        "R:", "iload_1", "ireturn"],
        [("S", "E", "H", ARITH), ("S", "E", "H", "java.lang.IllegalStateException")]))
    methods.append(method("finally", [
        "S1:", *divide(3), "E1:", "iload_1", ("ifeq", "R"),
        "S2:", *divide(7), "E2:", ("goto", "R"),
        "H:", "astore_2", "iconst_0", "istore_1", "aload_2", "athrow",
        "R:", "iload_1", "ireturn"],
        [("S1", "E1", "H", None), ("S2", "E2", "H", None), ("H", "R", "H", None)]))
    methods.append(method("unreachable_range", [
        "iload_0", ("ifeq", "L"), "S:", *divide(3), ("goto", "R"),
        "U:", "aconst_null", "athrow", "E:",
        "H:", *recover(1), "HU:", *recover(2),
        "L:", "iconst_0", "istore_1", "R:", "iload_1", "ireturn"],
        [("S", "E", "H", ARITH), ("U", "E", "HU", None)]))
    methods.append(method("unreachable_range_shared_head", [
        "iload_0", ("ifeq", "R"), "S:", *divide(3), "E:", ("goto", "R"),
        "U:", "aconst_null", "athrow", "UE:", "H:", *recover(1),
        "R:", "iload_0", "ireturn"],
        [("S", "E", "H", ARITH), ("U", "UE", "H", None)]))
    methods.append(method("nop_range_shared_head", [
        "S:", *divide(3), "E:", "N:", "nop", "NE:", ("goto", "R"),
        "H:", *recover(1), "R:", "iload_1", "ireturn"],
        [("S", "E", "H", ARITH), ("N", "NE", "H", None)]))
    for hop in (True, False):
        entry = ["iload_0", ("ifeq", "HOP"), "iconst_0", "ireturn", "HOP:", ("goto", "TRY")]
        if not hop:
            entry = ["iload_0", ("ifeq", "TRY"), "iconst_0", "ireturn"]
        methods.append(method(f"dropped_blocks_{hop}", [
            *entry, "TRY:", ("push_int", 100), "iload_0", "idiv", "istore_1", ("goto", "PAD"),
            "PAD:", "nop", "END:", "iload_1", "ireturn",
            "H:", "pop", "iconst_m1", "istore_1", ("goto", "END")],
            [("TRY", "END", "H", ARITH)]))
    return methods


def _handler_dumps() -> str:
    """The lifted and the normalized ``dump`` of each handler shape."""
    cf = parse_class(emit_class(ClassModel("t.Handlers", methods=_handler_shapes())))
    out = []
    for m in cf.methods:
        ir = lift(resolved_code(m, cf.constant_pool))
        out.append(f"{m.name}{m.descriptor}\n{dump(ir)}{dump(normalize(ir))}")
    return "".join(out)


def test_pinned_handler_dumps():
    """The corpus has no exception handler, so ``DUMP_SHA256`` never sees a
    ``handler [...]`` line: these methods pin how lift and normalize carry
    the exception table."""
    dumps = _handler_dumps()
    assert dumps.count("handler [") == 215
    assert _sha256(dumps.encode()) == HANDLER_DUMP_SHA256


def test_pinned_emitted_jars(variant_jars):
    """The exact bytes of the corpus pre/post JARs and of ``modify`` kinds
    1-4 of them: the emitted constant pools, code and ZIP layout, which
    the digests above see only through what they parse."""
    listing = "".join(f"{name} {_sha256(data)}\n" for name, data in sorted(variant_jars.items()))
    assert len(variant_jars) == 46
    assert _sha256(listing.encode()) == VARIANT_JARS_SHA256


# ------------------------------------------------ one method per mnemonic

_OBJ = "Ljava/lang/Object;"
_PRIM = {"i": "I", "l": "J", "f": "F", "d": "D"}
_ARRAYS = {"i": ("[I", "I"), "l": ("[J", "J"), "f": ("[F", "F"), "d": ("[D", "D"),
           "a": ("[" + _OBJ, _OBJ), "b": ("[B", "I"), "c": ("[C", "I"), "s": ("[S", "I")}
_CONDS = ("eq", "ne", "lt", "ge", "gt", "le")


def _mnemonic_cases() -> list[tuple]:
    """(method name, asm items of the instruction, descriptors it pops
    deepest first, descriptors it pushes bottom first), spelled here so
    that the pin does not read the table the lifter reads."""
    cases = [("aconst_null", ["aconst_null"], "", _OBJ)]
    cases += [(f"iconst_{n}", [f"iconst_{n}"], "", "I") for n in ("m1", 0, 1, 2, 3, 4, 5)]
    cases += [(f"{t}const_{n}", [f"{t}const_{n}"], "", _PRIM[t])
              for t, ns in (("l", (0, 1)), ("f", (0, 1, 2)), ("d", (0, 1))) for n in ns]
    cases += [("bipush", [("bipush", -7)], "", "I"), ("sipush", [("sipush", 300)], "", "I")]
    cases += [(p, [(p, v)], "", d) for p, v, d in (
        ("ldc_int", 70000, "I"), ("ldc_float", 2.5, "F"), ("ldc_string", 'a"b', _OBJ),
        ("ldc_class", "p.K", _OBJ), ("ldc_long", 1 << 40, "J"), ("ldc_double", 0.25, "D"))]
    for t, d in (*_PRIM.items(), ("a", _OBJ)):
        for suffix, slot in (("", 4), ("_0", 0), ("_1", 1), ("_2", 2), ("_3", 3)):
            load, store = f"{t}load{suffix}", f"{t}store{suffix}"
            cases.append((load, [(load, slot) if slot == 4 else load], "", d))
            cases.append((store, [(store, slot) if slot == 4 else store], d, ""))
    for t, (arr, elem) in _ARRAYS.items():
        value = _OBJ if t == "a" else {"b": "B", "c": "C", "s": "S"}.get(t, elem)
        cases.append((f"{t}aload", [f"{t}aload"], arr + "I", elem))
        cases.append((f"{t}astore", [f"{t}astore"], arr + "I" + value, ""))
    cases += [("pop", ["pop"], "I", ""), ("pop2", ["pop2"], "J", ""),
              ("dup", ["dup"], "F", "FF"), ("dup_x1", ["dup_x1"], "IF", "FIF"),
              ("dup_x2", ["dup_x2"], "JI", "IJI"), ("dup2", ["dup2"], "IF", "IFIF"),
              ("dup2_x1", ["dup2_x1"], "IJ", "JIJ"), ("dup2_x2", ["dup2_x2"], "JIF", "IFJIF"),
              ("swap", ["swap"], "IF", "FI")]
    for t, d in _PRIM.items():
        cases += [(t + op, [t + op], d + d, d) for op in ("add", "sub", "mul", "div", "rem")]
        cases.append((t + "neg", [t + "neg"], d, d))
    for t in "il":
        d = _PRIM[t]
        cases += [(t + op, [t + op], d + "I", d) for op in ("shl", "shr", "ushr")]
        cases += [(t + op, [t + op], d + d, d) for op in ("and", "or", "xor")]
    cases.append(("iinc", [("iinc", 0, -3)], "I", ""))
    cases += [(f"{a}2{b}", [f"{a}2{b}"], _PRIM[a], _PRIM[b])
              for a in _PRIM for b in _PRIM if a != b]
    cases += [(m, [m], "I", "I") for m in ("i2b", "i2c", "i2s")]
    cases += [(m, [m], d + d, "I") for m, d in (
        ("lcmp", "J"), ("fcmpl", "F"), ("fcmpg", "F"), ("dcmpl", "D"), ("dcmpg", "D"))]
    branches = [(f"if{c}", "I") for c in _CONDS] + [(f"if_icmp{c}", "II") for c in _CONDS]
    branches += [("if_acmpeq", _OBJ * 2), ("if_acmpne", _OBJ * 2),
                 ("ifnull", _OBJ), ("ifnonnull", _OBJ), ("goto", ""), ("goto_w", "")]
    cases += [(m, [(m, "end"), "end:"], pops, "") for m, pops in branches]
    cases.append(("tableswitch", [("tableswitch", "end", 2, 3, ("mid", "end")), "mid:",
                                  "nop", "end:"], "I", ""))
    cases.append(("lookupswitch", [("lookupswitch", "end", ((-1, "mid"), (9, "end"))),
                                   "mid:", "nop", "end:"], "I", ""))
    cases += [(f"{t}return", [f"{t}return"], d, "")
              for t, d in (*_PRIM.items(), ("a", _OBJ))]
    cases += [("return", ["return"], "", ""),
              ("athrow", ["athrow"], "Ljava/lang/Throwable;", "")]
    cases += [
        ("getstatic", [("getstatic", "p.F", "s", "J")], "", "J"),
        ("putstatic", [("putstatic", "p.F", "s", "J")], "J", ""),
        ("getfield", [("getfield", "p.F", "f", "D")], _OBJ, "D"),
        ("putfield", [("putfield", "p.F", "f", "D")], _OBJ + "D", ""),
        ("invokevirtual", [("invokevirtual", "p.F", "v", "(IJ)D")], _OBJ + "IJ", "D"),
        ("invokespecial", [("invokespecial", "p.F", "<init>", "(F)V")], _OBJ + "F", ""),
        ("invokestatic", [("invokestatic", "p.F", "s", "(D)J")], "D", "J"),
        ("new", [("new", "p.F")], "", _OBJ),
        ("newarray", [("newarray", "char")], "I", "[C"),
        ("anewarray", [("anewarray", "java.lang.String")], "I", _OBJ),
        ("arraylength", ["arraylength"], "[J", "I"),
        ("checkcast", [("checkcast", "java.lang.String")], _OBJ, _OBJ),
        ("instanceof", [("instanceof", "java.lang.String")], _OBJ, "I"),
        ("monitorenter", ["monitorenter"], _OBJ, ""),
        ("monitorexit", ["monitorexit"], _OBJ, ""),
        ("nop", ["nop"], "", ""),
    ]
    return cases


def _descs(spelled: str) -> list[str]:
    return parse_method_descriptor(f"({spelled})V")[0]


def _kind(desc: str) -> str:
    """The load, store and return prefix of a value of type ``desc``."""
    return {"J": "l", "F": "f", "D": "d"}.get(desc, "a" if desc[0] in "L[" else "i")


def _mnemonic_method(name: str, items: list, pops: str, pushes: str) -> MethodModel:
    """A static method whose parameters are what ``items`` pop, loaded in
    order, and whose one result is returned or whose results are stored,
    topmost first, to the locals after the parameters."""
    code, slot = [], 0
    for d in _descs(pops):
        code.append((_kind(d) + "load", slot))
        slot += 2 if d in "JD" else 1
    code += items
    results = _descs(pushes)
    if items[-1] in ("athrow", "return") or items[-1] in (f"{t}return" for t in "ilfda"):
        ret = "V"
    elif len(results) == 1:
        ret = results[0]
        code.append(_kind(ret) + "return")
    else:
        ret = "V"
        for d in reversed(results):
            code.append((_kind(d) + "store", slot))
            slot += 2 if d in "JD" else 1
        code.append("return")
    return MethodModel("m_" + name, f"({pops}){ret}", ACC_PUBLIC | ACC_STATIC, code=code)


def test_every_mnemonic_lifts_to_pinned_ir():
    """Each mnemonic the emitter writes and the lifter accepts, in a method
    of its own: the IR pins each instruction's operand types, pop order
    and categories. Left out: jsr, jsr_w and ret (the lifter refuses them),
    invokeinterface, invokedynamic and multianewarray (the emitter does),
    and ldc_w, which the emitter writes only past pool index 255."""
    cases = _mnemonic_cases()
    model = ClassModel("p.Ops", methods=[_mnemonic_method(*case) for case in cases])
    cf = parse_class(emit_class(model))
    written = {m for method in cf.methods for _o, m, _ops in method.code.instructions}
    assert written == set(FORMAT_OF) - {"jsr", "jsr_w", "ret", "invokeinterface",
                                        "invokedynamic", "multianewarray", "ldc_w"}
    dumps = "".join(f"{m.name}{m.descriptor}\n{dump(lift(resolved_code(m, cf.constant_pool)))}"
                    for m in cf.methods)
    assert len(cf.methods) == len(cases) == 198
    assert _sha256(dumps.encode()) == MNEMONICS_SHA256
