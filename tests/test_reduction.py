"""Exact rational span certificates for the reduction arguments."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from izeta import reduction
from izeta.algebra import FormalSum, T, Word
from izeta.identities import formal_sides, sum_formula_sides, sum_poly, sum_words
from izeta.interpolate import _taylor_parts, s_t, taylor_shift
from izeta.reduction import (
    RelationCertificate,
    SpanSolver,
    span_membership,
    verify_certificates,
    verify_csf_reduction,
    verify_sf_reduction,
)

from helpers import (
    by_word,
    compositions,
    cyclic_merges,
    cyclic_relation_parts,
    interpolation_by_recursion,
    sum_formula_relation_parts,
    watch_left_sides,
    words_up_to_weight,
)


def w(*letters):
    return FormalSum.from_word(Word(letters))


def test_scalar_multiple_of_single_generator():
    g = w(2, 1) - w(3)
    cert = span_membership(2 * g, [g])
    assert cert.success and cert.coefficients == [Fraction(2)]
    assert cert.verify()


def test_span_membership_reads_a_one_shot_iterable_of_generators_once():
    g0, g1 = w(2, 1) - w(3), w(4)
    cert = span_membership(2 * g0 + g1, (g for g in [g0, g1]))
    assert cert.generators == [g0, g1]
    assert cert.coefficients == [Fraction(2), Fraction(1)]
    assert cert.verify()


def test_zero_target_gets_zero_coefficients():
    cert = span_membership(FormalSum.zero(), [w(2), w(3)])
    assert cert.success and cert.coefficients == [Fraction(0), Fraction(0)]
    assert cert.verify()


def test_generator_itself_is_certified_with_unit_coefficient():
    g1 = sum_words(4, 2) - w(4)
    g2 = sum_words(4, 1) - w(4)
    cert = span_membership(g1, [g1, g2])
    assert cert.coefficients == [Fraction(1), Fraction(0)]
    assert cert.verify()


def test_membership_failure_is_a_value_not_an_error():
    cert = span_membership(w(2), [w(3)])
    assert not cert.success
    assert cert.coefficients is None
    assert not cert.verify()
    assert cert.to_record()["coefficients"] == "FAILURE"
    assert "FAILURE" in str(cert)


def test_rejects_targets_that_still_carry_t():
    with pytest.raises(ValueError):
        span_membership(T * w(2), [w(2)])
    with pytest.raises(ValueError):
        span_membership(w(2), [T * w(2)])
    with pytest.raises(ValueError, match="reduction inputs must be t-free"):
        RelationCertificate(T * w(2), [w(2)], [1]).verify()


def test_mixed_combination_recovered():
    g1 = w(2, 2) + 3 * w(4)
    g2 = w(2, 2) - w(3, 1)
    target = Fraction(1, 2) * g1 - 2 * g2
    cert = span_membership(target, [g1, g2])
    assert cert.success and cert.verify()
    assert cert.coefficients == [Fraction(1, 2), Fraction(-2)]


rational_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(rational_st, min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_random_combinations_always_verify(coeffs, data):
    pool = words_up_to_weight(4)
    generators = []
    for _ in coeffs:
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        g = FormalSum.zero()
        for word in picks:
            g = g + FormalSum.from_word(word)
        generators.append(g)
    target = FormalSum.zero()
    for c, g in zip(coeffs, generators):
        target = target + c * g
    cert = span_membership(target, generators)
    assert cert.success and cert.verify()


def test_certificate_record_uses_exact_rationals():
    g = w(2, 1) - w(3)
    record = span_membership(Fraction(-3, 7) * g, [g]).to_record()
    assert record["coefficients"] == ["-3/7"]


def test_sum_formula_reduction_small_cases_match_hand_expansion():
    certs = {c.label: c for c in verify_sf_reduction(3)}
    assert all(c.success and c.verify() for c in certs.values())
    t0 = certs["sum-formula k=3 n=2 power=0"]
    assert t0.target == sum_words(3, 2) - w(3)
    assert t0.coefficients[1] == Fraction(1)  # the x_{3,2} - z3 generator itself
    t1 = certs["sum-formula k=3 n=2 power=1"]
    assert t1.target.is_zero()
    assert all(c == 0 for c in t1.coefficients)


def test_sum_formula_reduction_k4_linear_power_vanishes():
    certs = {c.label: c for c in verify_sf_reduction(4)}
    assert certs["sum-formula k=4 n=2 power=1"].target.is_zero()
    assert all(c.success and c.verify() for c in certs.values())


@pytest.mark.parametrize("k", range(2, 7))
def test_sum_formula_reduction_succeeds(k):
    for cert in verify_sf_reduction(k):
        assert cert.success and cert.verify(), cert.label


@pytest.mark.parametrize("k", range(2, 6))
def test_cyclic_reduction_succeeds(k):
    for cert in verify_csf_reduction(k):
        assert cert.success and cert.verify(), cert.label


def test_cyclic_reduction_base_case_is_the_generator():
    certs = verify_csf_reduction(2)
    assert len(certs) >= 1
    assert all(c.success for c in certs)


@pytest.mark.parametrize("k", range(2, 7))
def test_sum_formula_reduction_after_shift_to_one(k):
    for cert in verify_sf_reduction(k, alpha=1):
        assert cert.success and cert.verify(), cert.label


@pytest.mark.parametrize("k", range(2, 5))
def test_cyclic_reduction_after_shift_to_one(k):
    for cert in verify_csf_reduction(k, alpha=1):
        assert cert.success and cert.verify(), cert.label


def test_reduction_targets_really_are_the_shift_coefficients():
    k = 4
    for n in range(1, k):
        expansion = s_t(sum_words(k, n)) - sum_poly(k, n) * w(k)
        pieces = taylor_shift(expansion, 0)
        labels = {c.label: c for c in verify_sf_reduction(k)}
        for power, piece in enumerate(pieces):
            cert = labels[f"sum-formula k={k} n={n} power={power}"]
            assert cert.target == piece


def test_verify_rejects_a_coefficient_moved_by_one_thousandth():
    certs = verify_sf_reduction(6) + verify_csf_reduction(4)
    moved = 0
    for cert in certs:
        assert cert.verify()
        for i, g in enumerate(cert.generators):
            if g.is_zero():
                continue
            coeffs = list(cert.coefficients)
            coeffs[i] += Fraction(1, 1000)
            bad = RelationCertificate(cert.target, cert.generators, coeffs, cert.label)
            assert not bad.verify()
            moved += 1
    assert moved > 100


@pytest.mark.parametrize("k", range(9, 14))
def test_sum_formula_certificates_follow_the_closed_form(k):
    # [t^j] S^t(sum_words(k, n)) = C(k-n+j-1, j) sum_words(k, n-j): a word of
    # depth m gets x^m (1 + t x)^(k-m-1) in sum_n x^n S^t(sum_words(k, n)).
    # So the t^j part of the depth-n relation is that multiple of generator
    # n-j; generator 1 is z_k - z_k = 0 and the others are independent.
    certs = verify_sf_reduction(k)
    assert len(certs) == k * (k - 1) // 2
    for cert in certs:
        n, j = (int(part.split("=")[1]) for part in cert.label.split()[2:])
        expected = [0] * (k - 1)
        if n - j >= 2:
            expected[n - j - 1] = comb(k - n + j - 1, j)
        assert cert.coefficients == expected, cert.label


@pytest.mark.parametrize("k", range(2, 10))
def test_sum_formula_certificate_targets_follow_the_closed_form_at_negative_alpha(k):
    # A negative non-integer alpha = p/q tests the sign of p and the
    # q^(d-j) scaling of the integer Taylor shift; the oracle re-expands
    # the binomial closed form of the t^j parts over plain tuples.
    alpha = Fraction(-2, 3)
    certs = verify_sf_reduction(k, alpha)
    assert len(certs) == k * (k - 1) // 2
    expected = {n: sum_formula_relation_parts(k, n, alpha) for n in range(1, k)}
    for cert in certs:
        n, power = (int(part.split("=")[1]) for part in cert.label.split()[2:])
        found = {tuple(u): p.constant() for u, p in cert.target.terms.items()}
        assert cert.target.is_t_free(), cert.label
        assert found == expected[n][power], cert.label
        assert cert.success and cert.verify(), cert.label


@pytest.mark.parametrize("k", range(2, 12))
def test_sum_formula_certificate_targets_follow_the_closed_form_at_alpha_zero(k):
    # At alpha = 0 the parts are the left side's own dicts, with the right
    # side subtracted in place: the oracle reads neither.
    certs = verify_sf_reduction(k)
    assert len(certs) == k * (k - 1) // 2
    expected = {n: sum_formula_relation_parts(k, n, 0) for n in range(1, k)}
    for cert in certs:
        n, power = (int(part.split("=")[1]) for part in cert.label.split()[2:])
        found = {tuple(u): p.constant() for u, p in cert.target.terms.items()}
        assert cert.target.is_t_free(), cert.label
        assert found == expected[n][power], cert.label
        assert cert.success and cert.verify(), cert.label


@pytest.mark.parametrize(
    "suite, k", [("cyclic", k) for k in range(2, 7)] + [("sum-formula", k) for k in range(2, 10)]
)
def test_parts_taken_in_place_change_no_formal_side_and_no_stored_dict(suite, k):
    relations = {"cyclic": reduction.cyclic_relations, "sum-formula": reduction.sum_formula_relations}
    fresh = dict(relations[suite](k)[1])
    for key, sides in relations[suite](k)[1]:
        formal = formal_sides(sides)
        _taylor_parts(sides, 0)  # uses up the left side's dicts
        assert formal == formal_sides(fresh[key])
        for e in (*formal, formal[0] - formal[1]):
            stored = {id(c): (c, dict(c)) for c in e._graded.values()}
            for alpha in (0, Fraction(1, 2), Fraction(-2, 3)):
                taylor_shift(e, alpha)
            assert all(c == before for c, before in stored.values())
            assert all(stored[id(c)][0] is c for c in e._graded.values())


def _cyclic_label(cert):
    """(k, word as a letter tuple, power) from a cyclic certificate label."""
    fields = dict(part.split("=") for part in cert.label.split()[1:])
    word = tuple(int(x) for x in fields["word"].split(","))
    return int(fields["k"]), word, int(fields["power"])


@pytest.mark.parametrize(
    "k, alpha",
    [(k, 0) for k in range(2, 10)]
    + [(k, alpha) for alpha in (Fraction(1, 2), 1) for k in range(2, 8)]
    + [(10, 0)]
    + [(k, Fraction(-2, 3)) for k in range(2, 7)],
)
def test_cyclic_certificate_targets_follow_the_closed_form(k, alpha):
    # The t^j part of a word's relation is the classical formula summed over
    # the merges of j of its cyclic gaps; the (t - alpha)^m parts re-expand
    # those by the binomial theorem.  The oracle reads no S^t and no solver.
    certs = verify_csf_reduction(k, alpha)
    expected = {}
    for cert in certs:
        k_seen, word, power = _cyclic_label(cert)
        assert k_seen == k and cert.target.is_t_free(), cert.label
        if word not in expected:
            expected[word] = cyclic_relation_parts(word, alpha)
        found = {tuple(u): p.constant() for u, p in cert.target.terms.items()}
        assert found == expected[word][power], cert.label
    assert sum(len(word) + 1 for word in expected) == len(certs)
    assert len(expected) == 2 ** (k - 1) - 1


@pytest.mark.parametrize("k", range(3, 8))
def test_verify_accepts_the_closed_form_cyclic_coefficients(k):
    # At alpha = 0, generator i is the classical formula g(v_i) of the i-th
    # relation's word, so the t^j part of w's relation is the sum of the
    # generators of its merged words, one each.  Moving one unit to a word
    # of another rotation class must fail: distinct classes are independent.
    certs = verify_csf_reduction(k)
    gens = certs[0].generators
    words = []
    for cert in certs:
        _, word, power = _cyclic_label(cert)
        if power == 0:
            words.append(word)
    index = {v: i for i, v in enumerate(words)}
    classes = [frozenset(v[i:] + v[:i] for i in range(len(v))) for v in words]
    closed, moved = [], []
    for cert in certs:
        _, word, power = _cyclic_label(cert)
        merges = cyclic_merges(word, power) if power < len(word) else []
        coeffs = [Fraction(0)] * len(gens)
        for v in merges:
            coeffs[index[v]] += 1
        closed.append(RelationCertificate(cert.target, gens, coeffs, cert.label))
        if merges:
            i = index[merges[0]]
            other = next(j for j, c in enumerate(classes) if c != classes[i])
            bad = list(coeffs)
            bad[i] -= 1
            bad[other] += 1
            moved.append(RelationCertificate(cert.target, gens, bad, cert.label))
    assert all(verify_certificates(closed))
    assert moved and not any(verify_certificates(moved))


# The coefficients do not depend on alpha.  The t^j part of a relation is
# the sum of its relations' values over the merges of j of its gaps (J), so
# writing t^|J| = ((t - alpha) + alpha)^|J| and splitting J into J1 and J2
# makes the (t - alpha)^m part the sum over the m-gap merges J1 of their
# relations at t = alpha, which are generators: S^a S^b = S^(a+b) on the
# gaps.  Generators of distinct classes are independent, so the solver's
# coefficients are these, one unit per merge on the first relation of the
# merged word's class.
NONZERO_ALPHAS = [Fraction(1, 2), Fraction(-2, 3), 3]


@pytest.mark.parametrize("alpha", NONZERO_ALPHAS, ids=str)
def test_cyclic_certificate_coefficients_follow_the_alpha_free_closed_form(alpha):
    for k in range(2, 9):
        certs = verify_csf_reduction(k, alpha)
        relations = [word for _, word, power in map(_cyclic_label, certs) if power == 0]
        first = {}  # least rotation -> index of the first relation of its class
        for i, v in enumerate(relations):
            first.setdefault(_least_rotation(v), i)
        for cert in certs:
            _, word, power = _cyclic_label(cert)
            expected = [0] * len(relations)
            for v in cyclic_merges(word, power) if power < len(word) else []:
                expected[first[_least_rotation(v)]] += 1
            assert cert.coefficients == expected, cert.label


@pytest.mark.parametrize("alpha", NONZERO_ALPHAS, ids=str)
def test_sum_formula_certificate_coefficients_follow_the_alpha_free_closed_form(alpha):
    # C(j, m) C(a + j, j) = C(a + m, m) C(a + j, j - m), a = k - n - 1: the
    # (t - alpha)^m part of the depth-n relation is C(k-n+m-1, m) times the
    # relation of depth n - m at alpha, and generator 1 is z_k - z_k = 0
    for k in range(2, 12):
        for cert in verify_sf_reduction(k, alpha):
            n, m = (int(part.split("=")[1]) for part in cert.label.split()[2:])
            expected = [0] * (k - 1)
            if n - m >= 2:
                expected[n - m - 1] = comb(k - n + m - 1, m)
            assert cert.coefficients == expected, cert.label


def _least_rotation(v):
    return min(v[i:] + v[:i] for i in range(len(v)))


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-2, 3)])
def test_reductions_certify_at_non_integer_alpha(alpha):
    certs = verify_csf_reduction(6, alpha) + verify_sf_reduction(9, alpha)
    assert all(c.success and c.verify() for c in certs)


coefficient_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
nonzero_coefficient_st = coefficient_st.filter(bool)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_triangular_generators_give_back_the_drawn_coefficients(data):
    # Distinct leading (smallest) words make the generators independent, so
    # the drawn coefficients are the only answer; the leading coefficients
    # need not be units, so pivots need not divide the entries they clear.
    pool = words_up_to_weight(4)
    leads = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    generators = []
    for lead in sorted(leads):
        g = data.draw(nonzero_coefficient_st) * FormalSum.from_word(lead)
        later = [u for u in pool if u > lead]
        tail = data.draw(st.lists(st.sampled_from(later), max_size=3, unique=True)) if later else []
        for word in tail:
            g = g + data.draw(nonzero_coefficient_st) * FormalSum.from_word(word)
        generators.append(g)
    coeffs = data.draw(st.lists(coefficient_st, min_size=len(generators), max_size=len(generators)))
    target = FormalSum.zero()
    for c, g in zip(coeffs, generators):
        target = target + c * g
    found = SpanSolver(generators).coefficients_for(target)
    assert found == coeffs and all(type(c) is Fraction for c in found)
    assert RelationCertificate(target, generators, found).verify()
    i = data.draw(st.integers(0, len(coeffs) - 1))
    bumped = list(found)
    bumped[i] += 1
    assert not RelationCertificate(target, generators, bumped).verify()
    inexact = list(found)
    inexact[i] = 0.5
    with pytest.raises(TypeError):
        RelationCertificate(target, generators, inexact).verify()


def test_verify_certificates_matches_verify_one_by_one():
    certs = verify_csf_reduction(4)
    good = next(c for c in certs if any(c.coefficients))
    i = next(i for i, c in enumerate(good.coefficients) if c)
    coeffs = list(good.coefficients)
    coeffs[i] += 1
    certs.append(RelationCertificate(good.target, good.generators, coeffs, "bumped"))
    certs.append(RelationCertificate(good.target, good.generators, None, "failed"))
    expected = [c.success and c.verify() for c in certs]
    assert expected[:-2] == [True] * (len(certs) - 2) and expected[-2:] == [False, False]
    assert verify_certificates(certs) == expected


def test_verify_certificates_converts_each_shared_generator_once(monkeypatch):
    certs = verify_csf_reduction(5)
    converted = []
    integer_form = reduction._integer_form
    monkeypatch.setattr(
        reduction, "_integer_form", lambda e: converted.append(e) or integer_form(e)
    )
    assert all(verify_certificates(certs))
    used = {i for c in certs for i, x in enumerate(c.coefficients) if x}
    # the words of one rotation class share their targets and coefficients
    targets = {id(c.target) for c in certs}
    assert len(targets) < len(certs)
    # the targets are read as the integers they were solved from
    assert len(converted) == len(used)  # each used generator, no target


def test_each_rotation_class_is_built_shifted_and_solved_once(monkeypatch):
    # The certify path runs in integers: graded sides, integer Taylor parts
    # and integer solves.  Those are the seams counted; no formal sum is
    # converted to integers while certifying.
    calls, batches = Counter(), []
    for owner, name in [
        (reduction, "_taylor_parts"),
        (SpanSolver, "_coefficients"),
        (reduction, "_integer_form"),
    ]:
        call = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, name=name, call=call: calls.update([name]) or call(*args)
        )
    build = reduction._cyclic_batch
    monkeypatch.setattr(reduction, "_cyclic_batch", lambda words: batches.append(words) or build(words))
    # both sides of the cyclic sum formula sum over the rotations of a word,
    # so one relation per rotation class, with one part per power of t
    words = [v for v in compositions(8) if len(v) < 8]
    classes = {min(v[i:] + v[:i] for i in range(len(v))) for v in words}
    certs = verify_csf_reduction(8)
    assert (len(words), len(classes), len(certs)) == (127, 34, 695)
    parts = sum(len(v) + 1 for v in classes)
    # the 34 classes are built once each, in one batch
    [batch] = batches
    assert len(batch) == 34 and {min(v[i:] + v[:i] for i in range(len(v))) for v in batch} == classes
    assert calls == {"_taylor_parts": 34, "_coefficients": parts}
    assert parts == 170
    # the certificates of one class share their target and coefficients
    by_label = {c.label: c for c in certs}
    for power in range(3):
        a, b = (by_label[f"cyclic k=8 word={v} power={power}"] for v in ("1,2,5", "2,5,1"))
        assert a.target is b.target and a.coefficients is b.coefficients
    # no two sum-formula relations share a key
    calls.clear()
    assert len(verify_sf_reduction(11)) == 55
    assert calls == {"_taylor_parts": 10, "_coefficients": 55}
    # the verifier reads the generators' integers off their formal sums
    # (the targets as the integers they were solved from)
    assert all(verify_certificates(certs)) and calls["_integer_form"] > 0


def test_certify_relations_reads_every_relation_before_it_solves(monkeypatch):
    # callers may work as the relations stream past (the CLI's numeric
    # checks) and rely on that work preceding any solve
    read = []
    labelled, sides = reduction.sum_formula_relations(6)

    def relations():
        for relation in sides:
            read.append(relation[0])
            yield relation
        read.append("end")

    def solver(*args):
        assert read[-1] == "end" and len(read) == 6
        return SpanSolver(*args)

    monkeypatch.setattr(reduction, "SpanSolver", solver)
    certs = reduction.certify_relations("sum-formula", (labelled, relations()), 0)
    assert len(certs) == 15 and all(verify_certificates(certs))


@pytest.mark.parametrize("alpha", [0, Fraction(1, 2)])
@pytest.mark.parametrize("suite, k, keys", [("sum-formula", 9, 8), ("cyclic", 7, 18)])
def test_certify_relations_lets_each_keys_sides_go_before_the_next_are_built(
    monkeypatch, suite, k, keys, alpha
):
    refs = watch_left_sides(monkeypatch, reduction)
    verify = {"sum-formula": verify_sf_reduction, "cyclic": verify_csf_reduction}[suite]
    certs = verify(k, alpha)
    # one left side per key, and none outlives the call
    assert len(refs) == keys and all(ref() is None for ref in refs)
    assert all(verify_certificates(certs))


def _is_graded(side, powers):
    """Whether a side is {word: {degree below powers: nonzero int}}."""
    return type(side) is dict and all(
        type(c) is dict and c and all(
            type(d) is int and 0 <= d < powers and type(x) is int and x for d, x in c.items()
        )
        for c in side.values()
    )


def test_relation_streams_carry_graded_sides_at_each_keys_first_relation():
    labelled, stream = reduction.cyclic_relations(8)
    assert len(labelled) == 127
    first = {}  # key -> label of its first relation, in stream order
    for label, key in labelled:
        first.setdefault(key, label)
    carried = [(first[key], sides, len(key) + 1) for key, sides in stream]
    assert len(carried) == 34
    assert [label for label, _, _ in carried] == list(first.values())
    assert all(_is_graded(by_word(side), powers) for _, sides, powers in carried for side in sides)
    labelled, stream = reduction.sum_formula_relations(11)
    assert [key for _, key in labelled] == list(range(1, 11))
    assert all(
        len(sides) == 2 and all(_is_graded(by_word(side), powers) for side in sides)
        for powers, sides in stream
    )


def _plain(side):
    """A graded side as {tuple: {degree: value}}, zeros dropped."""
    out = {tuple(u): {e: c for e, c in poly.items() if c} for u, poly in side.items()}
    return {u: poly for u, poly in out.items() if poly}


def _image(words, times=(1,)):
    """S^t of the sum of the letter tuples `words` (a word named twice
    counts twice) times the polynomial `times` in t, from the plain-dict
    recursion, zeros dropped."""
    out = {}
    for v in words:
        for u, poly in interpolation_by_recursion(v).items():
            acc = out.setdefault(u, {})
            for e, c in poly.items():
                for j, x in enumerate(times):
                    acc[e + j] = acc.get(e + j, 0) + x * c
    return _plain(out)


def _class_words(v):
    """The split and the raised words of the rotations of v."""
    rotations = [v[i:] + v[:i] for i in range(len(v))]
    split = [(r[0] + 1 - j,) + r[1:] + (j,) for r in rotations for j in range(1, r[0])]
    return split, [(r[0] + 1,) + r[1:] for r in rotations]


@cache
def _cyclic_oracle(v):
    """Both sides of the cyclic sum formula for the letter tuple v: S^t of
    the split words, and (1 - t) S^t of the raised words plus k t^n z_(k+1)."""
    split, raised = _class_words(v)
    k, n = sum(v), len(v)
    rhs = _image(raised, (1, -1))
    rhs[(k + 1,)][n] = rhs[(k + 1,)].get(n, 0) + k
    return _image(split), _plain(rhs)


@cache
def _sum_formula_oracle(k, n):
    """Both sides of the sum formula at weight k and depth n: S^t of the
    admissible words, and z_k times C(k-n+j-1, j) t^j, j < n."""
    words = [v for v in compositions(k) if len(v) == n and v[0] > 1]
    return _image(words), {(k,): {j: comb(k - n + j - 1, j) for j in range(n)}}


def _spy_batches(monkeypatch, name, batches):
    build = getattr(reduction, name)
    monkeypatch.setattr(
        reduction, name, lambda *args: batches.append(list(args[-1])) or build(*args)
    )


def _chunks(keys, size):
    """The consecutive chunks of `keys`, `size` to a chunk but the last."""
    return [keys[i:i + size] for i in range(0, len(keys), size)]


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_cyclic_sides_split_back_exactly_from_batches_of_classes(monkeypatch, per_batch):
    coincide = False
    for k in range(2, 9):
        batches = []
        _spy_batches(monkeypatch, "_cyclic_batch", batches)
        whole = list(reduction.cyclic_relations(k)[1])
        monkeypatch.undo()
        # one run over every class, in stream order
        classes = [key for key, _ in whole]
        [batch] = batches
        assert [min(v[i:] + v[:i] for i in range(len(v))) for v in batch] == classes
        # the same sides from consecutive chunks of per_batch classes
        chunks = _chunks(batch, per_batch)
        assert [sides for chunk in chunks for sides in reduction._cyclic_batch(chunk)] == [
            sides for _, sides in whole
        ]
        for key, sides in whole:
            assert tuple(_plain(by_word(side)) for side in sides) == _cyclic_oracle(tuple(key))
        # two classes of one chunk naming one word: only the offsets keep
        # that word's two images apart
        coincide |= any(
            set(sum(_class_words(a), [])) & set(sum(_class_words(b), []))
            for chunk in chunks for a, b in combinations(chunk, 2)
        )
    assert coincide == (per_batch > 1)


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_sum_formula_sides_split_back_exactly_from_batches_of_depths(monkeypatch, per_batch):
    for k in range(2, 12):
        batches = []
        _spy_batches(monkeypatch, "_sum_formula_batch", batches)
        whole = list(reduction.sum_formula_relations(k)[1])
        monkeypatch.undo()
        # one run over every depth, in stream order
        assert batches == [list(range(1, k))]
        # the same sides from consecutive chunks of per_batch depths
        chunks = _chunks(list(range(1, k)), per_batch)
        assert [sides for chunk in chunks for sides in reduction._sum_formula_batch(k, chunk)] == [
            sides for _, sides in whole
        ]
        for n, sides in whole:
            assert tuple(_plain(by_word(side)) for side in sides) == _sum_formula_oracle(k, n)
            # the public form, a batch of one
            assert tuple(
                _plain({u: p.coeffs for u, p in e.items()}) for e in sum_formula_sides(k, n)
            ) == _sum_formula_oracle(k, n)


@pytest.mark.parametrize("coefficients", [[2, 0, 99], [2, 0, 0], [2], []])
def test_verify_fails_a_coefficient_list_of_the_wrong_length(coefficients):
    g = w(2, 1) - w(3)
    assert RelationCertificate(2 * g, [g, w(4)], [2, 0]).verify()
    assert not RelationCertificate(2 * g, [g, w(4)], coefficients).verify()


@pytest.mark.parametrize("inexact", [0.0, -0.0, 2.0, 0.5])
def test_verify_refuses_every_inexact_coefficient(inexact):
    g = w(2, 1) - w(3)
    with pytest.raises(TypeError) as info:
        RelationCertificate(2 * g, [g, w(4)], [2, inexact]).verify()
    assert str(info.value) == "exact rational coefficient required, got float"


@pytest.mark.parametrize("inexact", [0.1, True, 0.0], ids=repr)
def test_records_and_text_refuse_every_inexact_coefficient(inexact):
    # rendering checks each entry as the verifier does, so no inexact
    # value is printed as a fraction beside "success": true
    g = w(2, 1) - w(3)
    cert = RelationCertificate(g, [g], [inexact])
    message = f"exact rational coefficient required, got {type(inexact).__name__}"
    for render in (RelationCertificate.verify, RelationCertificate.to_record, str):
        with pytest.raises(TypeError) as info:
            render(cert)
        assert str(info.value) == message
    # exact entries print as before
    cert = RelationCertificate(g, [g, w(4)], [Fraction(-1, 2), 3])
    assert cert.to_record()["coefficients"] == ["-1/2", "3"]
    assert str(cert) == ": target = -1/2*g0 + 3*g1"


def test_a_given_coefficient_list_is_read_anew_at_each_call():
    # a hand-built certificate keeps the list it was given, not a copy
    # or a reading of it, so an edit made in place shows at the next call
    g = w(2, 1) - w(3)
    coeffs = [Fraction(2), 0]
    cert = RelationCertificate(2 * g, [g, w(4)], coeffs, "L")
    assert cert.verify() and cert.to_record()["coefficients"] == ["2", "0"]
    coeffs[1] = Fraction(1, 3)
    assert not cert.verify() and cert.to_record()["coefficients"] == ["2", "1/3"]
    assert str(cert) == "L: target = 2*g0 + 1/3*g1"
    coeffs[1] = 0
    assert cert.verify() and cert.to_record()["coefficients"] == ["2", "0"]
    coeffs.append(0)
    assert not cert.verify() and cert.to_record()["coefficients"] == ["2", "0", "0"]
    coeffs[2] = 0.5
    with pytest.raises(TypeError):
        cert.to_record()
    del coeffs[2]
    assert cert.verify() and cert.coefficients is coeffs


def test_an_edit_to_a_solved_coefficient_list_is_what_the_verifier_checks():
    # once a solved part's list is built, the verifier reads that list, so
    # a record never prints coefficients that were not checked
    certs = verify_csf_reduction(5)
    [c] = [c for c in certs if c.label == "cyclic k=5 word=5 power=0"]
    assert c.verify()
    i = next(i for i, x in enumerate(c.coefficients) if x)
    c.coefficients[i] += 1
    assert not c.verify()
    sharing = [j for j, d in enumerate(certs) if d._part is c._part]
    oks = verify_certificates(certs)
    for j in sharing:
        record = certs[j].to_record()
        assert record["coefficients"][i] == str(c.coefficients[i])
        assert not oks[j] and not certs[j].verify()
    assert sum(oks) == len(certs) - len(sharing)


def test_certificate_text_lists_the_nonzero_coefficients():
    g = w(2, 1) - w(3)
    assert str(RelationCertificate(2 * g, [g], [Fraction(2)], "L")) == "L: target = 2*g0"
    assert str(RelationCertificate(FormalSum.zero(), [g], [0], "Z")) == "Z: target = 0"


def _spy(monkeypatch, owner, name, calls):
    call = getattr(owner, name)
    monkeypatch.setattr(
        owner, name, lambda *args: calls.update([name]) or call(*args)
    )


def test_the_text_verify_path_builds_no_coefficient_list_and_no_target_sum(monkeypatch):
    # `izeta verify` without --json reads verdicts and labels only, so the
    # verifier works from the integers the solver was given and the
    # nonzero coefficients it returned
    calls = Counter()
    _spy(monkeypatch, reduction, "_t_free_sum", calls)
    _spy(monkeypatch, reduction, "_dense", calls)
    certs = verify_csf_reduction(8)
    assert len(certs) == 695 and all(verify_certificates(certs))
    assert all(c.success for c in certs)
    assert calls == {"_t_free_sum": 34}  # one per generator, no target
    # a list is built on first read, once for the certificates sharing it
    by_label = {c.label: c for c in certs}
    a, b = (by_label[f"cyclic k=8 word={v} power=1"] for v in ("1,2,5", "2,5,1"))
    assert a.coefficients is b.coefficients
    assert calls == {"_t_free_sum": 34, "_dense": 1}
    # the JSON records print a solved part whose list was never read from
    # its integers and nonzero coefficients too, building neither, and
    # print what the built target sums and lists print
    certs = verify_csf_reduction(8)
    calls.clear()
    records = reduction.certificate_records(certs)
    assert not calls
    assert reduction.certificate_records(certs) == records
    assert not calls
    assert [(c.target, c.coefficients) for c in certs]  # each part's, built
    assert calls == {"_dense": 170, "_t_free_sum": 170 - 34}
    assert reduction.certificate_records(certs) == records


def test_a_solved_target_prints_its_plain_tuple_words_as_words():
    # S^t gives a part's words as plain tuples, whose own text is "(2, 9)":
    # a record prints each as the equal Word prints, here where no
    # generator has the word, over den 1 and over a den with a common factor
    g = w(3)
    for den, vec, text in [
        (1, {(2, 9): 1, (1, 1, 9): -2, Word((11,)): 3}, "(-2)*[1,1,9] + (1)*[2,9] + (3)*[11]"),
        (6, {(2, 9): 4, (5, 6): -3}, "(2/3)*[2,9] + (-1/2)*[5,6]"),
    ]:
        part = reduction._Part(None, None, {0: Fraction(1, 2)}, 1, den, dict(vec))
        cert = RelationCertificate._solved(part, [g], "L")
        [record] = reduction.certificate_records([cert])
        assert record["target"] == text == str(reduction._t_free_sum(den, vec))
        assert record["coefficients"] == ["1/2"] and record["generators"] == ["(1)*[3]"]


def _tampered(kind, cert):
    if kind == "no coefficients":
        cert.coefficients = None
    elif kind == "one coefficient raised":
        coeffs = list(cert.coefficients)
        coeffs[next(i for i, c in enumerate(coeffs) if c)] += 1
        cert.coefficients = coeffs
    else:
        cert.target = cert.target + w(2)


@pytest.mark.parametrize("kind", ["no coefficients", "one coefficient raised", "another target"])
@pytest.mark.parametrize("certify", [lambda: verify_csf_reduction(5), lambda: verify_sf_reduction(6)],
                         ids=["cyclic-5", "sum-formula-6"])
def test_tampering_with_a_solved_certificate_is_seen(certify, kind):
    certs = certify()
    # a certificate with a nonzero coefficient, sharing its part with
    # others where the suite shares any (the cyclic one does)
    shares = Counter(id(c.target) for c in certs)
    i = max(
        (n for n, c in enumerate(certs) if any(c.coefficients)),
        key=lambda n: shares[id(certs[n].target)],
    )
    cert = certs[i]
    sharing = [c for c in certs if c is not cert and c.target is cert.target]
    assert sharing or "sum-formula" in cert.label
    before = [(c.to_record(), c.target, list(c.coefficients)) for c in certs]
    _tampered(kind, cert)
    assert not cert.verify()
    assert verify_certificates(certs) == [n != i for n in range(len(certs))]
    record = cert.to_record()
    assert record != before[i][0]
    assert not record["success"] if kind == "no coefficients" else record["success"]
    for c in sharing:
        assert c.verify() and c.success
    for n, c in enumerate(certs):
        if n != i:
            assert (c.to_record(), c.target, c.coefficients) == before[n]


@pytest.mark.parametrize("alpha", [0, Fraction(1, 2)], ids=str)
def test_solved_certificates_equal_their_hand_built_copies(alpha):
    # a repr prints the whole generator list, so it is compared on every
    # certificate up to cyclic k = 6 (137 certificates of 31 generators);
    # at k = 7 and 8 the certificates differ from those only in size
    for certs, compare_reprs in [
        *((verify_csf_reduction(k, alpha), k <= 6) for k in range(2, 9)),
        *((verify_sf_reduction(k, alpha), True) for k in range(2, 12)),
    ]:
        copies = [
            RelationCertificate(c.target, c.generators, c.coefficients, c.label) for c in certs
        ]
        assert certs == copies
        if compare_reprs:
            assert [repr(c) for c in certs] == [repr(c) for c in copies]
        assert verify_certificates(certs) == verify_certificates(copies) == [True] * len(certs)
