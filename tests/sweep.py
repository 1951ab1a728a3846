"""The non-ample sweep: every input that takes the Koszul/conormal chase
among small sums of twisted tautological atoms on small Grassmannians.

The inputs are every G(k,n) with 3 <= n <= N_MAX and 2 <= k < n, and every
sum of 1-3 atoms from `ATOMS` (combinations with repetition), kept when the
bundle is globally generated, not ample and has a zero locus of positive
dimension.  Each kept input maps to its `HodgeDiamond` or to the
`RoofcalcError` that `hodge_numbers` raised.  The atom set is closed under
the duality G(k,n) = G(n-k,n), which swaps U* with Q and U with Q*, so the
dual of every input with 2 <= k <= n-2 is an input too.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from itertools import combinations_with_replacement

from roofcalc import bundles
from roofcalc.errors import RankError, RoofcalcError
from roofcalc.hodge import ZeroLocusSpec, hodge_numbers
from roofcalc.parser import parse_bundle

ATOMS = ["UD", "Q", "QD*O(1)", "U*O(1)", "UD*O(1)", "Q*O(1)", "O(1)", "O(2)"]
# each atom's image under G(k,n) = G(n-k,n): U* <-> Q, U <-> Q*, O(t) kept
DUAL_ATOM = {
    "UD": "Q", "Q": "UD", "QD*O(1)": "U*O(1)", "U*O(1)": "QD*O(1)",
    "UD*O(1)": "Q*O(1)", "Q*O(1)": "UD*O(1)", "O(1)": "O(1)", "O(2)": "O(2)",
}
N_MAX = 6

Key = tuple[int, int, tuple[str, ...]]


def label(key: Key) -> str:
    k, n, atoms = key
    return f"G({k},{n}) {'+'.join(atoms)}"


def dual_key(key: Key) -> Key:
    """The same variety on G(n-k,n), atoms in `ATOMS` order."""
    k, n, atoms = key
    return n - k, n, tuple(sorted((DUAL_ATOM[a] for a in atoms), key=ATOMS.index))


@cache
def outcomes() -> dict[Key, object]:
    """Kept input -> its diamond or the error it raised, in sweep order."""
    out: dict[Key, object] = {}
    for n in range(3, N_MAX + 1):
        for k in range(2, n):
            for size in (1, 2, 3):
                for atoms in combinations_with_replacement(ATOMS, size):
                    try:
                        spec = ZeroLocusSpec(k, n, parse_bundle("+".join(atoms), k, n))
                    except RankError:
                        continue
                    if bundles.is_ample(spec.bundle) or spec.dim <= 0:
                        continue
                    try:
                        out[k, n, atoms] = hodge_numbers(spec)
                    except RoofcalcError as exc:
                        out[k, n, atoms] = exc
    return out


def digest() -> str:
    """sha256 over every kept input: its label, then the sorted-key JSON of
    its diamond and the diamond's rendering, or the error's class and
    message."""
    h = hashlib.sha256()
    for key, result in outcomes().items():
        h.update(label(key).encode() + b"\n")
        if isinstance(result, RoofcalcError):
            h.update(f"{type(result).__name__}: {result}\n".encode())
        else:
            h.update(json.dumps(result.to_json_dict(), sort_keys=True).encode() + b"\n")
            h.update(result.render().encode() + b"\n")
    return h.hexdigest()
