"""Momentum lattice, interaction tables, mode sets, and model validation."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbog.model import (
    DEFAULT_MAX_MODES,
    Momentum,
    PotentialSpec,
    ResourceLimitError,
    TorusModel,
    build_mode_set,
    normalize_zero_mode,
    real_space_eval,
    validate_potential,
    zero_momentum,
)

TWO_PI = 2.0 * math.pi

coords_strategy = st.lists(st.integers(-6, 6), min_size=1, max_size=3)


class TestMomentum:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Momentum(())

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            Momentum((1.5,))

    @given(coords_strategy)
    def test_negation_is_involutive_and_exact(self, coords):
        p = Momentum(coords)
        assert -(-p) == p
        assert tuple(-p) == tuple(-c for c in coords)

    @given(coords_strategy)
    def test_norm2_matches_physical_components(self, coords):
        p = Momentum(coords)
        assert p.norm2 == (TWO_PI * TWO_PI) * sum(c * c for c in coords)

    def test_zero_detection(self):
        assert zero_momentum(3).is_zero
        assert not Momentum((0, 1)).is_zero

    def test_hashable_set_membership(self):
        s = {Momentum((1, 0)), Momentum((0, 1))}
        assert Momentum((1, 0)) in s
        assert Momentum((-1, 0)) not in s


class TestModeSet:
    @given(st.integers(1, 3), st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_negation_closure(self, d, cutoff):
        modes = set(build_mode_set(d, cutoff))
        assert all(-p in modes for p in modes)

    def test_membership_is_exact_ball(self):
        cutoff = 2.5 * TWO_PI
        modes = build_mode_set(1, cutoff)
        assert modes == tuple(Momentum((n,)) for n in range(-2, 3))

    def test_lexicographic_order(self):
        modes = build_mode_set(2, 1.5 * TWO_PI)
        assert list(modes) == sorted(modes)

    def test_include_zero_toggle(self):
        with_zero = build_mode_set(1, 7.0)
        without = build_mode_set(1, 7.0, include_zero=False)
        assert zero_momentum(1) in with_zero
        assert zero_momentum(1) not in without
        assert set(with_zero) - set(without) == {zero_momentum(1)}

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            build_mode_set(3, 100.0 * TWO_PI, max_modes=1000)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_mode_set(0, 1.0)
        with pytest.raises(ValueError):
            build_mode_set(1, -1.0)
        with pytest.raises(ValueError):
            build_mode_set(1, math.inf)


class TestPotentialSpec:
    def test_from_table_sorts_canonically(self):
        spec = PotentialSpec.from_table({(1,): 2.0, (-1,): 2.0, (0,): 1.0})
        assert [tuple(p) for p, _ in spec.entries] == [(-1,), (0,), (1,)]
        assert spec.w_hat(Momentum((1,))) == 2.0
        assert spec.w_hat(Momentum((5,))) == 0.0
        assert spec.w_zero == 1.0
        assert spec.coefficient_sum == 5.0

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PotentialSpec(((Momentum((1,)), 1.0), (Momentum((1,)), 2.0)), 7.0)

    def test_band_constructor(self):
        spec = PotentialSpec.band(d=1, radius=2.5 * TWO_PI, value=3.0, w0=1.0)
        assert spec.w_zero == 1.0
        for n in (-2, -1, 1, 2):
            assert spec.w_hat(Momentum((n,))) == 3.0
        assert spec.w_hat(Momentum((3,))) == 0.0
        assert spec.nonzero_momenta() == tuple(
            Momentum((n,)) for n in (-2, -1, 1, 2)
        )

    def test_validation_reports_every_problem(self):
        odd = PotentialSpec.from_table({(1,): 1.0})
        assert any("evenness" in line for line in validate_potential(odd))
        negative = PotentialSpec.from_table({(1,): -1.0, (-1,): -1.0})
        assert any("negative" in line for line in validate_potential(negative))
        outside = PotentialSpec(
            ((Momentum((2,)), 1.0), (Momentum((-2,)), 1.0)), support_radius=TWO_PI
        )
        assert any("support" in line for line in validate_potential(outside))
        good = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        assert validate_potential(good) == []

    @given(
        st.dictionaries(
            st.integers(-4, 4).filter(lambda n: n != 0),
            st.floats(0.0, 10.0),
            max_size=5,
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_space_range(self, half_table, x):
        # Symmetrize so evenness holds exactly, then check |w(x)| <= sum w_hat.
        table = {}
        for n, v in half_table.items():
            table[(n,)] = v
            table[(-n,)] = v
        if not table:
            table = {(0,): 1.0}
        spec = PotentialSpec.from_table(table)
        bound = math.fsum(abs(v) for _, v in spec.entries)
        value = real_space_eval(spec, (x,))
        assert abs(value) <= bound * (1.0 + 1e-12) + 1e-12

    def test_real_space_even_function(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0, (2,): 0.5, (-2,): 0.5})
        for x in (0.0, 0.1, 0.37, 0.5):
            assert real_space_eval(spec, (x,)) == pytest.approx(
                real_space_eval(spec, (-x,)), abs=1e-12
            )

    def test_real_space_rejects_odd_table(self):
        odd = PotentialSpec.from_table({(1,): 1.0})
        with pytest.raises(ValueError, match="not even"):
            real_space_eval(odd, (0.3,))

    def test_real_space_dimension_check(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        with pytest.raises(ValueError, match="dimension"):
            real_space_eval(spec, (0.1, 0.2))


class TestNormalizeZeroMode:
    def test_identity_when_no_zero_mode(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        shifted, offset = normalize_zero_mode(spec)
        assert shifted is spec
        assert offset(0.5, 7) == 0.0

    def test_shift_and_offset(self):
        spec = PotentialSpec.from_table({(0,): 3.0, (1,): 1.0, (-1,): 1.0})
        shifted, offset = normalize_zero_mode(spec)
        assert shifted.w_zero == 0.0
        assert shifted.w_hat(Momentum((1,))) == 1.0
        assert offset(0.25, 4) == 0.25 * 3.0 * 4 * 3 / 2.0


class TestTorusModel:
    def test_mean_field_default_coupling(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        model = TorusModel(d=1, N=8, potential=spec, mode_cutoff=7.0)
        assert model.lam == 1.0 / 8.0

    def test_explicit_coupling_kept(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        model = TorusModel(d=1, N=8, potential=spec, mode_cutoff=7.0, lam=0.7)
        assert model.lam == 0.7

    def test_rejects_bad_inputs(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        with pytest.raises(ValueError):
            TorusModel(d=0, N=2, potential=spec, mode_cutoff=7.0)
        with pytest.raises(ValueError):
            TorusModel(d=1, N=0, potential=spec, mode_cutoff=7.0)
        with pytest.raises(ValueError):
            TorusModel(d=1, N=2, potential=spec, mode_cutoff=-1.0)
        with pytest.raises(ValueError):
            TorusModel(d=1, N=2, potential=spec, mode_cutoff=7.0, lam=-0.1)
        odd = PotentialSpec.from_table({(1,): 1.0})
        with pytest.raises(ValueError, match="invalid potential"):
            TorusModel(d=1, N=2, potential=odd, mode_cutoff=7.0)
        spec2d = PotentialSpec.from_table({(1, 0): 1.0, (-1, 0): 1.0})
        with pytest.raises(ValueError, match="dimension"):
            TorusModel(d=1, N=2, potential=spec2d, mode_cutoff=7.0)

    def test_mode_set_and_nonzero_modes(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        model = TorusModel(d=1, N=4, potential=spec, mode_cutoff=7.0)
        assert model.mode_set() == tuple(Momentum((n,)) for n in (-1, 0, 1))
        assert model.nonzero_modes() == (Momentum((-1,)), Momentum((1,)))
        assert model.w_hat(Momentum((1,))) == 1.0

    def test_canonical_dict_round_trips_through_json(self):
        import json

        spec = PotentialSpec.from_table({(0,): 2.0, (1,): 1.0, (-1,): 1.0})
        model = TorusModel(d=1, N=4, potential=spec, mode_cutoff=7.0, lam=0.25)
        doc = model.to_canonical_dict()
        again = json.loads(json.dumps(doc))
        assert again == doc
        assert doc["lambda"] == 0.25
        assert doc["potential"]["entries"] == [[-1, 1.0], [0, 2.0], [1, 1.0]]

    def test_budget_guard_default(self):
        assert DEFAULT_MAX_MODES >= 1000
        spec = PotentialSpec.from_table({(0, 0, 0): 1.0})
        model = TorusModel(d=3, N=2, potential=spec, mode_cutoff=700.0)
        with pytest.raises(ResourceLimitError):
            model.mode_set()
