"""What the package relies on in its records: IR nodes, Lit, Block and
ConstructId (``__slots__`` classes) and the NamedTuple records."""

from pathlib import Path

import pytest

from jarscan.classfile.constructs import ConstructId
from jarscan.classfile.model import ClassFile, CodeAttribute, FieldInfo, MethodInfo
from jarscan.ir.model import (Assign, Block, Caught, Const, Copy, DynInvoke, Lit, NewObj,
                              Nop, Return, Throw)
from jarscan.kb import ConstructRecord, ManifestEntry
from jarscan.scanner import ConstructVerdict, MatchCounts, ScanConfig
from jarscan.triplets import FixSignature, Triplet
from test_ir import _EXAMPLES


def _nodes() -> list:
    """``_EXAMPLES`` and the expressions of its assignments."""
    return [*_EXAMPLES, *(n.expr for n in _EXAMPLES if isinstance(n, Assign))]


def _frozen_records() -> list:
    """One record of each class that refuses assignment, built afresh;
    the IR nodes from the fields of ``_EXAMPLES`` and their expressions."""
    code = CodeAttribute(1, 1, ((0, "return", ()),), ((0, 1, 1, None),))
    method = MethodInfo("m", "()V", 9, code)
    signature = FixSignature(frozenset({Triplet("a", "CFG", "b")}), frozenset(), frozenset())
    construct = ConstructId("method", "a.b.C: void m()")
    return [
        *(type(n)(*(getattr(n, name) for name in n.__slots__)) for n in _nodes()),
        Lit(1, "int"), Block(0, 0, 1, (0,)), construct,
        code, FieldInfo("f", "I", 2), method,
        ClassFile(61, 0x21, "a.b.C", "java.lang.Object", (), (), (method,),
                  ("a.b.C: void m()",), ("C: void m()",)),
        ManifestEntry("CVE-1", Path("pre"), Path("post")),
        ConstructRecord(construct, "changed", signature, frozenset({"C: void m()"})),
        signature, ScanConfig(), MatchCounts(1, 2, 3, 4, 5, 6),
        ConstructVerdict("a.b.C", "class", "removed", "CVE-1", "fixed", "default"),
    ]


def test_records_keep_the_semantics_the_package_relies_on():
    # IR nodes of different classes with equal fields are unequal.
    assert len({Copy("v1"), Throw("v1"), NewObj("v1")}) == 3
    assert Copy("v1") != Throw("v1") and Throw("v1") != NewObj("v1")
    assert Lit(1, "int") != Const(1, "int") and Const(1, "int") != Lit(1, "int")
    assert not isinstance(Lit(1, "int"), tuple)
    # Every IR node is truthy, Nop() included.
    assert Nop() and all(_nodes()) and not any(isinstance(n, tuple) for n in _nodes())

    # Equal fields give equal objects and equal hashes; no field can be
    # assigned or deleted.
    for record, twin in zip(_frozen_records(), _frozen_records()):
        assert record == twin and hash(record) == hash(twin) and record is not twin
        name = (getattr(record, "_fields", None) or record.__slots__ or ("value",))[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    # Defaults and keywords construct as they always have.
    assert (Return().value, Return().jtype) == (None, None) and Return() == Return(None, None)
    assert Caught(None).catch_type is None
    dyn = DynInvoke(result="t1", name="makeConcatWithConstants",
                    desc="(I)Ljava/lang/String;", args=("t0",))
    assert dyn == DynInvoke("t1", "makeConcatWithConstants", "(I)Ljava/lang/String;", ("t0",))
    assert (dyn.result, dyn.name, dyn.desc, dyn.args) == (
        "t1", "makeConcatWithConstants", "(I)Ljava/lang/String;", ("t0",))

    # ConstructId: synthetic takes no part in equality; unqualified is fqn
    # with packages stripped.
    synthetic = ConstructId("method", "a.b.C: a.b.D m(java.lang.String)", True)
    plain = ConstructId("method", "a.b.C: a.b.D m(java.lang.String)")
    assert synthetic == plain and hash(synthetic) == hash(plain)
    assert synthetic.synthetic and not plain.synthetic
    assert plain.unqualified == "C: D m(String)"
    assert ConstructId("class", "a.b.C") != ConstructId("interface", "a.b.C")
