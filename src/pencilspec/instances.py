"""Seeded instance generators with known ground truth.

Three families, listed in :data:`FAMILIES` (name -> ``(n, k, m, seed)``
builder), the one family list ``generate --family`` offers:

* ``decomposable`` - a Haar-conjugated direct sum of k identical random
  Hermitian tuples.  Every spectral condition must pass and the splitting
  construction must recover a tuple unitarily equivalent to the seed.
* ``conjugate_negative`` - a fixed 6x6 pair (D + D, B + conj(B)) whose full
  characteristic polynomial is a perfect square for free (a real-coefficient
  polynomial times its conjugate-coefficient twin), yet whose off-diagonal
  block phases multiply to -i around the (1,2,3) cycle; no splitting into
  two identical copies exists and the cycle word must fail its power test.
  It takes only the seed.
* ``commuting`` - simultaneously diagonalizable generators with every joint
  eigenvalue repeated exactly k times; the zero-off-diagonal branch of the
  construction.  Its rejection sampler limits it to n <= 16.

Each rotates a block-diagonal tuple by a Haar unitary (:func:`_rotated`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianTuple, hermitian_part

__all__ = [
    "InstanceDescriptor",
    "haar_unitary",
    "gen_decomposable",
    "gen_conjugate_negative",
    "gen_commuting",
    "FAMILIES",
]

SPECTRAL_GAP_FLOOR = 0.1  # keeps every tolerance ladder comfortably valid


@dataclass(frozen=True)
class InstanceDescriptor:
    family: str
    n: int
    k: int
    m: int
    seed: int
    expected_pass: bool
    seed_tuple: tuple = None          # positives: the n x n tuple that was copied
    failing_word: dict = None         # negatives: letters/projections of a word that must fail

    def as_dict(self):
        d = {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "seed": self.seed,
            "expected_pass": self.expected_pass,
        }
        if self.failing_word is not None:
            d["failing_word"] = self.failing_word
        return d


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Ginibre matrix with
    the R-diagonal phases normalized away."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_hermitian(n, rng):
    return hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _gapped(n, draw, spectrum=lambda w: w):
    """``draw()`` again until its ascending ``spectrum`` of n values has
    gaps of at least the floor."""
    while True:
        x = draw()
        if n == 1 or np.min(np.diff(spectrum(x))) >= SPECTRAL_GAP_FLOOR:
            return x


def _rotated(blocks, u) -> HermitianTuple:
    """The Hermitian parts of ``u B u*`` for each block-diagonal ``B``."""
    return HermitianTuple.exact(hermitian_part(np.stack([u @ b @ u.conj().T for b in blocks])))


def _seeded(n, k, m, seed):
    if min(n, k, m) < 1:
        raise ValueError("need n, k, m >= 1")
    return np.random.default_rng(seed)


def _copies(family, seed_mats, k, seed, rng):
    """k copies of the n x n tuple ``seed_mats``, rotated by a Haar unitary
    drawn from ``rng``, and the descriptor of a family that splits."""
    n = seed_mats[0].shape[0]
    tup = _rotated([np.kron(np.eye(k), a) for a in seed_mats], haar_unitary(n * k, rng))
    return tup, InstanceDescriptor(family, n, k, len(seed_mats), seed if isinstance(seed, int) else -1,
                                   expected_pass=True, seed_tuple=tuple(seed_mats))


def gen_decomposable(n: int, k: int, m: int, seed) -> tuple:
    """Haar-conjugated direct sum of k copies of a random Hermitian m-tuple.

    The first seed generator is resampled until its spectrum is simple with
    minimum gap 0.1, which is what the splitting hypothesis needs.
    """
    rng = _seeded(n, k, m, seed)
    t1 = _gapped(n, lambda: _random_hermitian(n, rng), np.linalg.eigvalsh)
    return _copies("decomposable", [t1] + [_random_hermitian(n, rng) for _ in range(m - 1)], k, seed, rng)


def gen_conjugate_negative(seed) -> tuple:
    """The 6x6 obstruction pair, Haar-rotated by the seed.

    D = diag(1,2,3); B has unit entries except B[0,2] = i and zero diagonal.
    The pair (D + D, B + conj(B)) and the conjugated pair returned here
    share every spectral invariant: det(x1 A1 + x2 A2 - I) is exactly the
    square of a degree-3 polynomial (the two diagonal blocks carry the same
    real-coefficient polynomial), but the block phase product around the
    cycle of clusters 1 -> 2 -> 3 -> 1 is -i on one copy and +i on the
    other, so no unitary can merge the copies.  The word
    A2 P2 A2 P3 A2 is guaranteed to fail the square test.
    """
    d = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    b = np.array(
        [[0.0, 1.0, 1.0j], [1.0, 0.0, 1.0], [-1.0j, 1.0, 0.0]], dtype=np.complex128
    )
    z = np.zeros((3, 3), dtype=np.complex128)
    tup = _rotated((np.block([[d, z], [z, d]]), np.block([[b, z], [z, b.conj()]])), haar_unitary(6, seed))
    return tup, InstanceDescriptor("conjugate_negative", 3, 2, 2, seed if isinstance(seed, int) else -1,
                                   expected_pass=False,
                                   failing_word={"letters": (2, 2, 2), "projections": (2, 3)})


def gen_commuting(n: int, k: int, m: int, seed) -> tuple:
    """Commuting tuple: all generators diagonal in one Haar-random basis,
    each joint eigenvalue vector repeated exactly k times, coordinates
    separated by the gap floor so every generator has n clean clusters.
    Each generator takes about (1 - (n-1)/40)^-n draws: 1.9e3 at n = 16,
    4e5 at n = 20, and no draw succeeds above n = 40, so n > 16 is refused."""
    if n > 16:
        raise ValueError(f"commuting needs n <= 16: drawing n values on [-2, 2] with gaps of "
                         f"at least {SPECTRAL_GAP_FLOOR} takes about (1 - (n-1)/40)^-n tries")
    rng = _seeded(n, k, m, seed)
    seed_mats = []
    for _ in range(m):
        vals = _gapped(n, lambda: np.sort(rng.uniform(-2.0, 2.0, size=n)))
        seed_mats.append(np.diag(rng.permutation(vals)).astype(np.complex128))
    return _copies("commuting", seed_mats, k, seed, rng)


FAMILIES = {
    "decomposable": gen_decomposable,
    "conjugate_negative": lambda n, k, m, seed: gen_conjugate_negative(seed),
    "commuting": gen_commuting,
}
