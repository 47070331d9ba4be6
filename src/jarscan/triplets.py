"""Edge triplets and fix signatures, apart from the graphs they come from.

The knowledge base stores, and the scanner matches, sets of triplets; only
building them needs the IR (``cpg.method_triplets``). Unqualification
strips package prefixes inside every label, so a relocated body's triplets
compare equal to the original's.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .classfile.constructs import strip_packages


class Triplet(NamedTuple):
    source: str
    edge: str
    target: str


TripletSet = frozenset  # of Triplet


class FixSignature(NamedTuple):
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
