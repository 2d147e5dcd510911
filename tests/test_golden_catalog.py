"""The catalog bit for bit: every catalog scheme, and yoshida(3), yoshida(4)
and suzuki(3), against the slots and labels recorded for it.

Each record is the scheme's name, order, family, note, target name, target
terms (degree, position and the float.hex of each weight part), slot count
and the digest of its slot list: one line per slot, the generator's name and
the float.hex of its coefficient (of the real and the imaginary part when it
is complex).  A builder that moves one bit of one coefficient, or one label,
fails here.
"""

import hashlib

import pytest

from commexp.schemes import catalog_get, catalog_names, suzuki, yoshida

#: name, order, family, note, target name, target terms, slot count, slot digest
GOLDEN = {
    "U21": (
        "U21", 2, "general",
        "four-exponential group commutator, letters in A-first order",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        4, "860f2ea14be4cc02ef4bbe405fc02946"),
    "U22": (
        "U22", 2, "PCP",
        "four-exponential group commutator, letters in B-first order",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        4, "ebf77755d0631e2384025ddcf88c5dcd"),
    "S2_chen": (
        "S2_chen", 2, "general",
        "second-order baseline commutator scheme",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        4, "860f2ea14be4cc02ef4bbe405fc02946"),
    "S3_chen": (
        "S3_chen", 3, "general",
        "third-order baseline commutator scheme (family at c5=1)",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        6, "77691ad990db6504c0323a508a918118"),
    "NCP6_3": (
        "NCP6_3", 3, "NCP",
        "6-exponential commutator approximation of order 3",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        6, "813d8e17d197f4a3d6fa1703d8c69cce"),
    "NCP10_4": (
        "NCP10_4", 4, "NCP",
        "10-exponential commutator approximation of order 4",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        10, "9420b326451a3a0040d0cba3df8deb24"),
    "PCP16_5": (
        "PCP16_5", 5, "PCP",
        "16-exponential commutator approximation of order 5",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        16, "3f697c2b5ff299d919ba4a4f18ce5e12"),
    "PCP26_6": (
        "PCP26_6", 6, "PCP",
        "26-exponential commutator approximation of order 6",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        26, "bdd320cced22ebaaa9c1abb31c46ea0b"),
    "PCP12_4": (
        "PCP12_4", 4, "PCP",
        "12-exponential commutator approximation of order 4",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        12, "65065787b7089f28f21a6a7b4e5cc362"),
    "NCP18_5": (
        "NCP18_5", 5, "NCP",
        "18-exponential commutator approximation of order 5",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        18, "d69c0d5a7df2be4205d4b1b690ff661b"),
    "PCP6_3_imaginary": (
        "PCP6_3_imaginary", 3, "NCP",
        "pure-imaginary mirrored variant of the six-exponential scheme",
        "commutator", ((2, 1, "0x1.0000000000000p+0"),),
        6, "2bc1773f9dd20e17b920f6e945baa5bf"),
    "strang": (
        "strang", 2, "palindromic",
        "symmetric second-order sum splitting",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        3, "990387ef248dd47dcd6058274589966a"),
    "fap8": (
        "fap8", 3, "general",
        "eight-exponential unit-coefficient nested-commutator formula",
        "nested_aab", ((3, 1, "0x1.0000000000000p+0"),),
        8, "08f84651cd93ec478d559dcb73a2c567"),
    "aor4_opt": (
        "aor4_opt", 4, "palindromic",
        "palindromic doubly-nested-commutator approximation",
        "nested_aab", ((3, 1, "0x1.0000000000000p+0"),),
        9, "c3c1d80cb8579c8fafd88956ba91c74a"),
    "combined5": (
        "combined5", 3, "general",
        "shortest splitting carrying sum, commutator and nested terms at once",
        "combined", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
            (2, 1, "0x1.0000000000000p+0"),
            (3, 1, "0x1.0000000000000p+0"),
        ),
        5, "f91edcd6986a003c3df515c4406be833"),
    "phi3": (
        "phi3(R=1)", 2, "general",
        "minimal sum-plus-commutator splitting",
        "sum_plus_commutator(R=1)", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
            (2, 1, "0x1.0000000000000p+0"),
        ),
        3, "22456805bcc5e15ffeb2742d7f9c77de"),
    "phi4": (
        "phi4(R=1,c3=-1)", 2, "general",
        "sum-plus-commutator splitting with one free parameter",
        "sum_plus_commutator(R=1)", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
            (2, 1, "0x1.0000000000000p+0"),
        ),
        4, "9b957e20f7ff63c709e05a771f7a7e83"),
    "phi5": (
        "phi5(R=1,top)", 3, "general",
        "third-order sum-plus-commutator splitting",
        "sum_plus_commutator(R=1)", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
            (2, 1, "0x1.0000000000000p+0"),
        ),
        5, "c703f66b2b6d9fac12742fc8ff583f0d"),
    "yoshida4": (
        "yoshida4", 4, "recursion",
        "triple-jump recursion over the symmetric second-order splitting",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        7, "9cdfbf6a0f0745179d2b8226f32f4d66"),
    "suzuki4": (
        "suzuki4", 4, "recursion",
        "quintuple-jump recursion, unmerged elementary-gate form",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        20, "97704775a86d1ca29b6eec87a7adab10"),
    "zass_sym22": (
        "zass_sym22", 4, "extension",
        "symmetric product factorization with nested-commutator blocks",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        22, "22aba14f766063c1164b91ffed8b9894"),
    "nested4_50": (
        "nested4_50", 4, "extension",
        "NCP10_4 with each B slot realized by aor4(d2=0.301895) "
        "at the cube root of its coefficient",
        "nested_aaab", ((4, 1, "0x1.0000000000000p+0"),),
        50, "ceed137a73b5d7f26b1f9982f1a0391c"),
    "yoshida(3)": (
        "yoshida6", 6, "recursion",
        "triple-jump recursion over the symmetric second-order splitting",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        19, "90cca3bbb0a31f50075bf2c94f022af6"),
    "yoshida(4)": (
        "yoshida8", 8, "recursion",
        "triple-jump recursion over the symmetric second-order splitting",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        55, "8e1d2930744c4d342c39a199b19038c9"),
    "suzuki(3)": (
        "suzuki6", 6, "recursion",
        "quintuple-jump recursion, unmerged elementary-gate form",
        "sum", (
            (1, 1, "0x1.0000000000000p+0"),
            (1, 2, "0x1.0000000000000p+0"),
        ),
        100, "ffbf936f562049a1b7a3922356d0246f"),
}


#: The entries that are not catalog names, built at their arguments.
BUILT = {"yoshida(3)": lambda: yoshida(3), "yoshida(4)": lambda: yoshida(4),
         "suzuki(3)": lambda: suzuki(3)}


def hexes(c) -> tuple[str, ...]:
    c = complex(c)
    return (c.real.hex(), c.imag.hex()) if c.imag else (c.real.hex(),)


def slot_digest(scheme) -> str:
    text = "\n".join(" ".join((s.generator.name, *hexes(s.coefficient))) for s in scheme.slots)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def record(scheme) -> tuple:
    terms = tuple((d, p, *hexes(w)) for (d, p), w in sorted(scheme.target.terms.items()))
    return (scheme.name, scheme.order, scheme.family, scheme.note, scheme.target.name, terms,
            scheme.slot_count, slot_digest(scheme))


def test_every_catalog_name_is_recorded():
    assert [key for key in GOLDEN if key not in BUILT] == catalog_names()


@pytest.mark.parametrize("key", list(GOLDEN))
def test_scheme_matches_its_record_bit_for_bit(key):
    scheme = BUILT[key]() if key in BUILT else catalog_get(key)
    assert record(scheme) == GOLDEN[key]
