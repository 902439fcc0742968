"""Spectrum enumeration, homogenized limits and the confinement check."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novlink.errors import (
    ConfigError,
    ObstructedError,
    SpectrumError,
    SubadditivityError,
)
from novlink.spectrum import (
    SPECTRUM_POINT_LIMIT,
    ModelOrbitSet,
    SpectrumConfig,
    enumerate_spectrum,
    fekete_homogenize,
    rigidity_check,
    spectrum_gap,
)

from oracles import spectrum_brute_force


def cfg(k, pi, lo, hi):
    return SpectrumConfig(k=k, pi_generator=F(pi), window=(F(lo), F(hi)))


class TestEnumerate:
    def test_zero_hamiltonian_gives_lattice(self):
        spec = enumerate_spectrum(ModelOrbitSet([0]), cfg(3, F(1, 2), -1, 1))
        assert spec == [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]

    def test_single_class_scales_with_period(self):
        s = F(2, 7)
        spec = enumerate_spectrum(ModelOrbitSet([s]), cfg(5, 100, 0, 2))
        assert spec == [5 * s]

    def test_two_classes_period_two(self):
        spec = enumerate_spectrum(ModelOrbitSet([0, 1]), cfg(2, 100, -5, 5))
        assert spec == [F(0), F(1), F(2)]

    def test_duplicates_normalized(self):
        orb = ModelOrbitSet([F(1, 2), F(1, 2), F(1, 2)])
        assert orb.values == (F(1, 2),)

    def test_empty_orbits_rejected(self):
        with pytest.raises(SpectrumError, match="no orbits"):
            enumerate_spectrum(ModelOrbitSet([]), cfg(1, 1, 0, 1))

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            cfg(1, 1, 2, 1)
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            SpectrumConfig(k=0, pi_generator=1, window=(0, 1))

    @pytest.mark.parametrize("window", [5, (0,), (0, 1, 2), "01", None])
    def test_malformed_window_rejected(self, window):
        with pytest.raises(ConfigError, match="window must be a pair"):
            SpectrumConfig(2, 1, window)

    @pytest.mark.parametrize("values", [5, "01", None, {0: 1}, {0, 1}])
    def test_malformed_values_rejected(self, values):
        with pytest.raises(ConfigError, match="values must be a list"):
            ModelOrbitSet(values)

    @pytest.mark.parametrize("k", [2.5, F(2), True, "2"])
    def test_non_integer_k_rejected(self, k):
        # A period budget is a count: it is refused, not cut to an int.
        with pytest.raises(ConfigError, match="k must be a JSON integer"):
            SpectrumConfig(k=k, pi_generator=1, window=(0, 1))

    def test_permutation_invariance(self):
        a = enumerate_spectrum(ModelOrbitSet([F(1, 3), F(-1), F(2)]),
                               cfg(3, 10, -4, 4))
        b = enumerate_spectrum(ModelOrbitSet([F(2), F(1, 3), F(-1)]),
                               cfg(3, 10, -4, 4))
        assert a == b

    def test_union_contains_both_spectra(self):
        w = cfg(2, 50, -6, 6)
        s1 = ModelOrbitSet([F(1, 2)])
        s2 = ModelOrbitSet([F(-1, 3), F(1)])
        both = enumerate_spectrum(ModelOrbitSet(s1.values + s2.values), w)
        assert set(enumerate_spectrum(s1, w)) <= set(both)
        assert set(enumerate_spectrum(s2, w)) <= set(both)

    def test_shift_translates_by_k_s(self):
        rng = random.Random(77)
        for _ in range(20):
            k = rng.randint(1, 5)
            vals = [F(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))]
            s = F(rng.randint(-5, 5), rng.randint(1, 3))
            lo, hi = F(-3), F(3)
            pi = F(rng.randint(5, 30))
            base = enumerate_spectrum(ModelOrbitSet(vals),
                                      SpectrumConfig(k, pi, (lo, hi)))
            shifted = enumerate_spectrum(
                ModelOrbitSet([v + s for v in vals]),
                SpectrumConfig(k, pi, (lo + k * s, hi + k * s)))
            assert shifted == [x + k * s for x in base]


    def test_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(150):
            k = rng.randint(1, 4)
            vals = [F(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))]
            g = F(rng.randint(1, 12), rng.randint(1, 4))
            if rng.random() < 0.5:
                # Both window ends on translates of one k-fold sum.
                base = sum(rng.choice(vals) for _ in range(k))
                lo = base - rng.randint(0, 3) * g
                hi = base + rng.randint(0, 3) * g
            else:
                lo = F(rng.randint(-12, 4), rng.randint(1, 3))
                hi = lo + F(rng.randint(0, 16), rng.randint(1, 3))
            spec = enumerate_spectrum(ModelOrbitSet(vals), cfg(k, g, lo, hi))
            assert spec == spectrum_brute_force(sorted(set(vals)), k, g,
                                                lo, hi)

    def test_size_limit_refused_up_front(self):
        # 2 * 10^9 + 1 translates of the single base value 0.
        with pytest.raises(ConfigError, match=str(SPECTRUM_POINT_LIMIT)):
            enumerate_spectrum(ModelOrbitSet([0]),
                               cfg(1, F(1, 10 ** 6), -1000, 1000))
        # C(2002, 2) multisets of 2000 of three values, one translate each.
        with pytest.raises(ConfigError, match="2003001 points"):
            enumerate_spectrum(ModelOrbitSet([0, F(1, 3), F(1, 7)]),
                               cfg(2000, 1, 0, 0))

    @pytest.mark.parametrize("n, k", [(1, 10 ** 6), (2, 999), (3, 124)])
    def test_step_limit_bounds_the_sums_program(self, n, k):
        # The bound refused is k C(k + n - 1, n - 1) = n C(k + n - 1, n);
        # the sums take at most C(k + n - 1, n - 1) - 1 steps, within it.
        # The largest k within the limit runs, and the next is refused,
        # though none of these requests has 8002 points.
        values = [F(1, 10 ** i) for i in range(n)]
        steps = [n * math.comb(k + j + n - 1, n) for j in (0, 1)]
        assert steps[0] <= SPECTRUM_POINT_LIMIT < steps[1]
        assert enumerate_spectrum(ModelOrbitSet(values), cfg(k, 1, 0, 0)) \
            == [F(0)]
        with pytest.raises(ConfigError, match=f"need {steps[1]} steps .* "
                                              f"{SPECTRUM_POINT_LIMIT}$"):
            enumerate_spectrum(ModelOrbitSet(values), cfg(k + 1, 1, 0, 0))


@st.composite
def spectrum_requests(draw):
    """``(values, k, g, lo, hi)``: 1-6 distinct small rationals, ``k`` from
    1 to 6, and a window with both ends on translates of a ``k``-fold sum,
    one narrower than ``g``, or a single point."""
    values = draw(st.lists(st.fractions(F(-4), F(4), max_denominator=4),
                           min_size=1, max_size=6, unique=True))
    k = draw(st.integers(1, 6))
    g = draw(st.fractions(F(1, 3), F(5), max_denominator=3))
    base = sum(draw(st.sampled_from(values)) for _ in range(k))
    kind = draw(st.sampled_from(("translates", "narrow", "point")))
    if kind == "translates":
        lo = base - draw(st.integers(0, 3)) * g
        hi = base + draw(st.integers(0, 3)) * g
    else:
        lo = draw(st.sampled_from((base, base - g / 2))) \
            + draw(st.fractions(F(-2), F(2), max_denominator=5))
        hi = lo if kind == "point" else \
            lo + g * draw(st.fractions(F(0), F(1), max_denominator=7)
                          .filter(lambda w: w < 1))
    return values, k, g, lo, hi


class TestOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(spectrum_requests())
    def test_matches_brute_force(self, request):
        values, k, g, lo, hi = request
        assert enumerate_spectrum(ModelOrbitSet(values), cfg(k, g, lo, hi)) \
            == spectrum_brute_force(sorted(values), k, g, lo, hi)

    @pytest.mark.parametrize("k", [1, 2])
    def test_many_values_finish_fast(self, k):
        # 300 values: a program that rescanned the finished sums for every
        # value would take about 300^3 / 6 steps at k = 2, about 1 s in
        # CPython, against C(301, 2) here.  The window holds one translate
        # of each residue of a k-fold sum modulo 1.
        M = 10 ** 6
        rng = random.Random(300)
        nums = rng.sample(range(M), 300)
        start = time.perf_counter()
        spec = enumerate_spectrum(ModelOrbitSet([F(n, M) for n in nums]),
                                  cfg(k, 1, 0, F(M - 1, M)))
        assert time.perf_counter() - start < 0.5
        residues = sorted({sum(c) % M for c in
                           itertools.combinations_with_replacement(nums, k)})
        assert spec == [F(r, M) for r in residues]


class TestFekete:
    def test_linear_sequence_degenerate_bracket(self):
        est, (lo, hi) = fekete_homogenize([3 * m for m in range(1, 21)])
        assert est == 3 and lo == 3 and hi == 3

    def test_affine_estimate_within_beta_over_M(self):
        M = 100
        est, _ = fekete_homogenize([3 * m + 5 for m in range(1, M + 1)])
        assert est - 3 == F(5, M)

    def test_violation_named(self):
        with pytest.raises(SubadditivityError) as err:
            fekete_homogenize([1, 3])
        assert err.value.pair == (1, 1)

    def test_bracket_contains_running_infimum(self):
        rng = random.Random(4)
        for _ in range(10):
            alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
            beta = F(rng.randint(0, 9), rng.randint(1, 2))
            M = rng.randint(3, 40)
            seq = [alpha * m + beta for m in range(1, M + 1)]
            est, (lo, hi) = fekete_homogenize(seq)
            inf_available = min(v / m for m, v in enumerate(seq, start=1))
            assert lo <= inf_available <= hi
            assert est == inf_available

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fekete_homogenize([])

    @pytest.mark.parametrize("bad", ["321", b"321", 5, None])
    def test_values_must_be_an_iterable(self, bad):
        # The digits of "321" are no sequence 3, 2, 1.
        with pytest.raises(ConfigError, match="^c_values must be a list of "
                                              "rationals, got "):
            fekete_homogenize(bad)

    def test_values_may_be_a_tuple_or_a_generator(self):
        want = (F(1, 3), (F(1, 3), F(1, 3)))
        assert fekete_homogenize([3, 2, 1]) == want
        assert fekete_homogenize((3, 2, 1)) == want
        assert fekete_homogenize(v for v in (3, 2, 1)) == want


class TestRigidity:
    SPEC = [F(0), F(7, 10), F(13, 10)]

    def test_constant_path(self):
        out = rigidity_check(self.SPEC, [F(7, 10)] * 3, F(1, 5))
        assert out.constant and out.violation_index is None

    def test_jump_flagged_at_first_moving_index(self):
        out = rigidity_check(self.SPEC, [F(0), F(7, 10)], F(1, 5))
        assert not out.constant
        assert out.violation_index == 1

    def test_empty_path_vacuously_constant(self):
        assert rigidity_check(self.SPEC, [], F(1, 5)).constant

    def test_sample_outside_spectrum(self):
        with pytest.raises(SpectrumError, match="index 1") as err:
            rigidity_check(self.SPEC, [F(0), F(1, 2)], F(1, 5))
        assert err.value.index == 1

    def test_insufficient_separation(self):
        with pytest.raises(SpectrumError, match="separation"):
            rigidity_check(self.SPEC, [F(0)], F(7, 10))

    def test_gap(self):
        assert spectrum_gap(self.SPEC) == F(3, 5)
        assert spectrum_gap([F(1)]) is None

    @pytest.mark.parametrize("bad", ["135", b"135", 5, None])
    def test_spectrum_must_be_an_iterable(self, bad):
        # The digits of "135" are no spectrum {1, 3, 5}.
        for call in (lambda: spectrum_gap(bad),
                     lambda: rigidity_check(bad, [0], F(1, 5))):
            with pytest.raises(ConfigError, match="^spectrum must be a list "
                                                  "of rationals, got "):
                call()

    @pytest.mark.parametrize("bad", ["11", b"11", 5, None])
    def test_path_samples_must_be_an_iterable(self, bad):
        with pytest.raises(ConfigError, match="^path_samples must be a list "
                                              "of rationals, got "):
            rigidity_check([1, 3], bad, 1)

    def test_spectrum_and_samples_may_be_sets_or_generators(self):
        assert spectrum_gap(set(self.SPEC)) == F(3, 5)
        assert spectrum_gap(x for x in self.SPEC) == F(3, 5)
        out = rigidity_check(tuple(self.SPEC),
                             (s for s in [F(0), F(7, 10)]), F(1, 5))
        assert out.violation_index == 1


def test_error_context_is_none_unless_given():
    assert SubadditivityError("m").pair is None
    assert SpectrumError("m").index is None
    assert ObstructedError("m").order is None
    assert ObstructedError("m", order=F(1, 2)).order == F(1, 2)
    assert str(SpectrumError("m", index=3)) == "m"
    for make in (lambda: ConfigError("m", order=1),
                 lambda: SpectrumError("m", pair=(1, 1))):
        with pytest.raises(TypeError, match="unknown error context"):
            make()
    with pytest.raises(TypeError):  # the context is given by keyword only
        ObstructedError("m", F(1, 2))
