"""Imported mathematical facts, kept as data so certificates can tell
computed steps from cited theorems.

Every entry carries a source descriptor; the classifier applies these as
rules and never inlines them silently.
"""

from __future__ import annotations

SOURCES = {
    "torus_classification": (
        "Kawauchi's classification of torus pretzel knots: with all indices of "
        "absolute value > 1, only {-2,3,3} and {-2,3,5} up to mirror; the "
        "degenerate (-2,1,n) triples are torus as well"),
    "lamination_reduction": (
        "Delman's lamination construction: a non-torus pretzel knot with a "
        "cyclic or finite filling must be of the form (p,q,-r) with r >= 2 "
        "even and 3 <= p <= q odd"),
    "z_filling": (
        "Gabai: only the trivial knot admits a filling with infinite cyclic "
        "fundamental group"),
    "cyclic_surgery_theorem": (
        "Culler-Gordon-Luecke-Shalen cyclic surgery theorem: non-meridional "
        "cyclic fillings are integral and attain the minimal norm S"),
    "finite_norm_bound": (
        "Boyer-Zhang: a finite filling satisfies |slope| <= S + 8, and its "
        "denominator satisfies b <= 2 when the meridian is cyclic"),
    "total_norm_model": (
        "Boyer-Zhang: the total norm is 2 * sum_i a_i * distance(., beta_i) "
        "over the boundary slopes beta_i, with nonnegative integers a_i; a "
        "norm needs at least two nonzero coefficients"),
    "character_doubling": (
        "Boyer-Zhang / Boden-Boyer counting: each of the >= 3 irreducible "
        "PSL(2,C)-characters of the triangle quotient is covered twice in "
        "SL(2,C) and raises the zero degree by 2, giving the S + 12 floor at "
        "even-numerator fillings"),
    "nonintegral_proximity": (
        "Dunfield: a non-trivial cyclic filling of such a knot lies within "
        "distance one of a non-integral boundary slope"),
    "lens_toroidal_distance": (
        "Gordon (with Oh, Wu for irreducibility, the orbifold theorem for "
        "geometrization, and Gabai to exclude infinite cyclic): a cyclic "
        "filling at distance > 5 from a toroidal filling would be a lens "
        "space, yet lens-toroidal distance is at most 5"),
    "exceptional_distance": (
        "Agol, Lackenby: two exceptional fillings have distance at most 10; "
        "an odd slope therefore differs from the even toroidal slope 2(p+q) "
        "by at most 9"),
    "coxeter_finiteness": (
        "Edjvet's classification of the finite groups "
        "(2,a,b;c) = <R,S | R^a, S^b, (RS)^2, (R^2S^2)^c>, with (2,3,13;4) "
        "left open"),
    "quotient_surjection": (
        "The filled group surjects onto (2, p, |s-2p|; r/2); the filling "
        "cannot be finite when that quotient is infinite"),
    "montesinos_boundary_slopes": (
        "Hatcher-Oertel boundary-slope computations for Montesinos knots "
        "(consumed through the closed forms and explicit lists used here)"),
    "published_minus2_3_surgeries": (
        "Published classification of cyclic and finite surgeries on the "
        "(-2,3,n) pretzel knots"),
    "fintushel_stern": (
        "Fintushel-Stern: the 18- and 19-fillings of the (-2,3,7) pretzel "
        "knot are lens spaces"),
    "bleiler_hodgson": (
        "Bleiler-Hodgson: the finite fillings 17, 18, 19 of (-2,3,7) and "
        "22, 23 of (-2,3,9)"),
    "snappea_check": (
        "SnapPea verification: the 19-filling of the (-2,5,7) pretzel knot "
        "is hyperbolic"),
    "residual_case_analysis": (
        "Direct case-by-case analysis of the residual window 3 <= p <= 7, "
        "4 <= r <= 10 (SnapPea assisting in a few cases): no non-trivial "
        "finite surgeries there either"),
}

# Torus triples in canonical form (all indices of absolute value > 1).
TORUS_TRIPLES = {(-2, 3, 3), (-2, 3, 5)}

# The knots where the strict triangle inequality 1/p + 1/q + 2/r < 1 fails
# inside the (p,q,-r), r >= 4 family, written as positive (p, q, r).
EXCEPTIONAL_PQR = {(3, 3, 4), (3, 5, 4), (3, 3, 6)}

# SnapPea-verified hyperbolic fillings: canonical triple -> slopes.
SNAPPEA_HYPERBOLIC_FILLINGS = {(-2, 5, 7): (19,)}


# Published surgeries of (-2,3,q) by question and q; every other odd q >= 7 has none.
PUBLISHED_MINUS2_3 = {("cyclic", 7): (18, 19), ("finite", 7): (17, 18, 19),
                      ("finite", 9): (22, 23)}


def published_minus2_3(question: str, q: int) -> tuple[int, ...] | None:
    """Published surgeries of (-2,3,q) on the question, q >= 7 odd; None if not covered."""
    if q % 2 == 0 or q < 7:
        return None
    return PUBLISHED_MINUS2_3.get((question, q), ())


def in_residual_window(p: int, r: int) -> bool:
    """The window handed to the direct case analysis: 3 <= p <= 7, 4 <= r <= 10."""
    return 3 <= p <= 7 and 4 <= r <= 10
