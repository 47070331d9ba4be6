"""Edge triplets and fix signatures, apart from the graphs they come from.

The knowledge base stores, and the scanner matches, sets of triplets; only
building them needs the IR (``cpg.method_triplets``). Unqualification
strips package prefixes inside every label, so a relocated body's triplets
compare equal to the original's.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .classfile.constructs import strip_packages

SEP = "\x1f"
# Inside a label, "\n", SEP and ESC are written in caret notation after
# ESC: "\n" as ESC "J", SEP as ESC "_" and ESC as ESC "P".
ESC = "\x10"
_ESCAPES = {c: ESC + chr(ord(c) + 0x40) for c in ("\n", SEP, ESC)}
_UNESCAPES = {e[1]: c for c, e in _ESCAPES.items()}
_TO_ESCAPE = re.compile(f"[{''.join(_ESCAPES)}]")
_ESCAPED = re.compile("\x10(.?)", re.DOTALL)


class Triplet(NamedTuple):
    source: str
    edge: str
    target: str


TripletSet = frozenset  # of Triplet


@dataclass(frozen=True)
class FixSignature:
    """Context, positive and negative triplets of one method fix."""

    ct: frozenset
    pt: frozenset
    nt: frozenset


def diff(t_vul: frozenset, t_fix: frozenset) -> FixSignature:
    """Split pre/post triplet sets into context/positive/negative parts."""
    return FixSignature(ct=frozenset(t_vul & t_fix),
                        pt=frozenset(t_fix - t_vul),
                        nt=frozenset(t_vul - t_fix))


def unqualify(triplets: Iterable[Triplet], memo: dict | None = None) -> frozenset:
    """Strip package prefixes inside every label; re-deduplicates.

    ``memo`` maps labels to their stripped form; it is filled as labels
    are met, so a label shared with earlier calls is not stripped again.
    """
    memo = {} if memo is None else memo
    stripped = memo.__getitem__
    out = []
    for t in triplets:
        for label in t:
            if label not in memo:
                memo[label] = strip_packages(label)
        out.append(Triplet._make(map(stripped, t)))
    return frozenset(out)


def serialize_triplets(triplets: Iterable[Triplet]) -> str:
    """Canonical form: sorted lines, one per triplet, of its labels joined
    by SEP, with "\n", SEP and ESC inside a label escaped. A label that
    holds none of them is written as it is."""
    triplets = sorted(triplets)
    text = "\n".join(SEP.join(t) for t in triplets)
    if (ESC in text or text.count(SEP) != 2 * len(triplets)
            or text.count("\n") != max(len(triplets) - 1, 0)):
        escape = lambda match: _ESCAPES[match.group()]
        text = "\n".join(SEP.join(_TO_ESCAPE.sub(escape, label) for label in t)
                         for t in triplets)
    return text


def deserialize_triplets(text: str) -> frozenset:
    """The triplets ``serialize_triplets`` wrote; raises ValueError for a
    line that is not three labels or for an escape it does not write."""
    label = sys.intern if ESC not in text else _unescaped
    out = []
    for line in text.split("\n"):
        if line:
            src, edge, dst = map(label, line.split(SEP))
            out.append(Triplet(src, edge, dst))
    return frozenset(out)


def _unescape(match) -> str:
    char = _UNESCAPES.get(match.group(1))
    if char is None:
        raise ValueError(f"bad escape {match.group()!r} in a triplet label")
    return char


def _unescaped(label: str) -> str:
    return sys.intern(_ESCAPED.sub(_unescape, label))
