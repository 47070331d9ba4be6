"""Seeded random generators: integer methods (assembly form), methods that
name classes (for relocation), and small register-IR control-flow graphs
for the dataflow oracles."""

from __future__ import annotations

import random

from jarscan.classfile import (
    ClassModel,
    MethodModel,
    class_entry_path,
    default_constructor,
    emit_class,
    parse_class,
    write_jar,
)
from jarscan.ir.model import (
    Assign,
    Bin,
    Block,
    Branch,
    Const,
    Goto,
    Lit,
    MethodIr,
    Return,
)

_BINOPS = ["iadd", "isub", "imul", "iand", "ior", "ixor", "ishl", "ishr", "iushr"]
_CONDS = ["ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle",
          "if_icmpeq", "if_icmpne", "if_icmplt", "if_icmpge",
          "if_icmpgt", "if_icmple"]


def random_int_method(rng: random.Random, *, params: int = 2,
                      segments: int = 6) -> list:
    """Assembly for a terminating static (I..I)I method: straight-line
    arithmetic with forward-only branches."""
    nslots = params + rng.randint(1, 3)
    code: list = []
    for slot in range(params, nslots):
        code.append(("push_int", rng.randint(-4, 4)))
        code.append(("istore", slot))

    label_n = 0
    for _ in range(segments):
        choice = rng.random()
        if choice < 0.45:
            for operand in range(2):
                if rng.random() < 0.7:
                    code.append(("iload", rng.randrange(nslots)))
                else:
                    code.append(("push_int", rng.randint(-64, 64)))
            code.append(rng.choice(_BINOPS))
            code.append(("istore", rng.randrange(nslots)))
        elif choice < 0.65:
            code.append(("iinc", rng.randrange(nslots), rng.randint(-8, 8)))
        else:
            cond = rng.choice(_CONDS)
            label = f"S{label_n}"
            label_n += 1
            if cond.startswith("if_icmp"):
                code.append(("iload", rng.randrange(nslots)))
                code.append(("iload", rng.randrange(nslots)))
            else:
                code.append(("iload", rng.randrange(nslots)))
            code.append((cond, label))
            code.append(("iload", rng.randrange(nslots)))
            code.append(("push_int", rng.randint(-16, 16)))
            code.append(rng.choice(["iadd", "ixor", "isub"]))
            code.append(("istore", rng.randrange(nslots)))
            code.append(label + ":")
    code.append(("iload", rng.randrange(nslots)))
    code.append("ireturn")
    return code


def assemble_method(code: list, params: int = 2):
    """Emit and re-parse one static int method; returns (ClassFile, MethodInfo)."""
    desc = "(" + "I" * params + ")I"
    model = ClassModel("rnd.G", methods=[MethodModel("f", desc, 0x09, code=code)])
    cf = parse_class(emit_class(model))
    return cf, cf.methods[0]


# Classes a generated method names. The "lib." ones ship in the generated
# JAR, so ``modify`` kind 4 relocates them; the JDK ones stay. Among them
# a look-alike StringBuilder and a package segment that strip_packages
# cannot strip (it starts with a digit).
LIB_CLASSES = ("lib.A", "lib.io.B", "lib.io.A", "lib.StringBuilder", "lib.Failure",
               "lib.v1.2x.C")
_JDK_CLASSES = ("java.lang.Object", "java.lang.String", "java.lang.RuntimeException")
_BUILDERS = ("java.lang.StringBuilder", "lib.StringBuilder")


def _desc(dotted: str) -> str:
    return "L" + dotted.replace(".", "/") + ";"


def random_ref_method(rng: random.Random, name: str, *, segments: int = 6) -> MethodModel:
    """A static (Object, int) -> Object method whose straight-line and
    forward-branching segments name classes every way lifting reads them:
    new and constructors, owners and descriptors of calls and fields,
    casts, instanceof, class and string constants, arrays, catch types
    and builder chains. Object locals are slots 2-4, an int local slot 5."""
    classes = LIB_CLASSES + _JDK_CLASSES
    pick = lambda: rng.choice(classes)
    obj = lambda: ("aload", rng.choice((0, 2, 3, 4)))
    store = lambda: ("astore", rng.randint(2, 4))
    code: list = []
    handlers: list = []
    for slot in (2, 3, 4):
        code += ["aconst_null", ("astore", slot)]
    code += ["iconst_0", ("istore", 5)]
    for n in range(segments):
        kind = rng.randrange(10)
        if kind == 0:
            cls = pick()
            code += [("new", cls), "dup", ("invokespecial", cls, "<init>", "()V"), store()]
        elif kind == 1:
            owner, arg, ret = pick(), pick(), pick()
            code += [obj(), obj(), ("push_int", rng.randint(-3, 40)),
                     ("invokevirtual", owner, rng.choice(("get", "apply")),
                      f"({_desc(arg)}I){_desc(ret)}"), store()]
        elif kind == 2:
            owner, typ = pick(), pick()
            code += [("getstatic", owner, rng.choice(("F", "G")), _desc(typ)),
                     ("putstatic", pick(), "H", _desc(typ))]
        elif kind == 3:
            code += [obj(), ("checkcast", pick()), store(),
                     obj(), ("instanceof", pick()), ("istore", 5)]
        elif kind == 4:
            code += [("ldc_class", pick()), store(),
                     ("ldc_string", rng.choice(classes + ("plain text", "lib/io/B"))), store()]
        elif kind == 5:
            code += [("push_int", rng.randint(0, 4)), ("anewarray", pick()), store()]
        elif kind == 6:
            builder = rng.choice(_BUILDERS)
            code += [("new", builder), "dup", ("invokespecial", builder, "<init>", "()V"),
                     obj(), ("invokevirtual", builder, "append",
                             f"(Ljava/lang/Object;){_desc(builder)}"),
                     ("invokevirtual", builder, "toString", "()Ljava/lang/String;"), store()]
        elif kind == 7:
            code += [f"T{n}:", obj(), ("invokestatic", pick(), "check",
                                       f"({_desc('java.lang.Object')})V"),
                     f"E{n}:", ("goto", f"A{n}"), f"H{n}:", store(), f"A{n}:"]
            handlers.append((f"T{n}", f"E{n}", f"H{n}", rng.choice((None, pick()))))
        elif kind == 8:
            code += [obj(), ("ifnull", f"S{n}"), ("new", pick()), "dup",
                     ("invokespecial", pick(), "<init>", "()V"), store(), f"S{n}:"]
        else:
            code += [("iload", 5), ("iinc", 5, rng.randint(1, 3)), "pop"]
    code += [obj(), "areturn"]
    return MethodModel(name, "(Ljava/lang/Object;I)Ljava/lang/Object;", 0x09,
                       code=code, handlers=handlers)


def random_ref_jar(rng: random.Random, methods: int = 3) -> bytes:
    """A JAR of class lib.gen.G holding ``methods`` random_ref_method
    bodies, plus a stub for every LIB_CLASSES name."""
    gen = ClassModel("lib.gen.G", methods=[default_constructor()] + [
        random_ref_method(rng, f"f{i}") for i in range(methods)])
    stubs = [ClassModel(name, methods=[default_constructor()]) for name in LIB_CLASSES]
    return write_jar([(class_entry_path(m.name), emit_class(m)) for m in [gen, *stubs]])


def random_method_ir(rng: random.Random, *, max_blocks: int = 10,
                     registers: int = 4):
    """A random MethodIr over int registers with arbitrary block graph,
    suited to reaching-definition and post-dominance oracles."""
    nblocks = rng.randint(2, max_blocks)
    regs = [f"r{i}" for i in range(registers)]
    params = tuple((r, "int") for r in regs[:2])

    statements: list = []
    blocks: list[Block] = []
    for bid in range(nblocks):
        start = len(statements)
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(regs)
            if rng.random() < 0.3:
                statements.append(Assign(target, Const(rng.randint(0, 9), "int")))
            else:
                statements.append(Assign(target, Bin("add", "int",
                                                     rng.choice(regs),
                                                     rng.choice(regs))))
        # Terminator: keep at least one path to the end but allow cycles.
        roll = rng.random()
        if bid == nblocks - 1 or roll < 0.2:
            value = rng.choice(regs) if rng.random() < 0.8 else None
            statements.append(Return(value, "int" if value else None))
        elif roll < 0.55:
            statements.append(Goto(rng.randrange(nblocks)))
        else:
            statements.append(Branch("lt", "int",
                                     (rng.choice(regs), Lit(0, "int")),
                                     taken=rng.randrange(nblocks),
                                     fallthrough=rng.randrange(nblocks)))
        blocks.append(Block(bid, start, len(statements)))
    return MethodIr(params=params, is_static=True, statements=statements,
                    blocks=blocks, handlers=())
