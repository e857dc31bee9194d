import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekit import planewave as pw
from wavekit.errors import SingularCoefficientError
from wavekit.units import UnitSystem

U = UnitSystem()
UREL = UnitSystem(c=137.035999)


def test_constant_values_by_hand():
    assert pw.constant_A(U) == pytest.approx(4.0)
    assert pw.constant_A(UnitSystem(hbar=2.0)) == pytest.approx(1.0)
    assert pw.constant_A_prime(2.0) == pytest.approx(-1.0)
    # B at rest energy: E = E0 gives zero numerator
    assert pw.constant_B(UREL.E0, UREL) == 0.0
    assert pw.constant_D(UREL.E0, UREL) == 0.0
    p = 3.0
    expected = -p**2 / (UREL.E0**2 * (UREL.E0**2 + (UREL.c * p) ** 2))
    assert pw.constant_B_prime(p, UREL) == pytest.approx(expected, rel=1e-14)
    assert pw.constant_D_prime(p, UREL) == pytest.approx(expected, rel=1e-14)


def test_unit_system_is_a_hashable_value():
    # a frozen dataclass of four floats: equal systems hash alike
    assert hash(UnitSystem(c=2.0)) == hash(UnitSystem(c=2.0))
    assert {UnitSystem(), UnitSystem(hbar=1.0)} == {U}


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0))
def test_nr_closures_vanish(p):
    assert abs(pw.calibration_closure_nr_stationary(p, U)) < 1e-12
    assert abs(pw.calibration_closure_nr_timedep(p, U)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=30.0))
def test_rel_closures_vanish(p_over_mc):
    p = p_over_mc * UREL.E0 / UREL.c
    for f in (pw.calibration_closure_rel_stationary,
              pw.calibration_closure_rel_timedep,
              pw.calibration_closure_pot_stationary,
              pw.calibration_closure_pot_timedep):
        assert abs(f(p, UREL)) < 1e-12


def test_free_states_have_zero_residuals():
    st_nr = pw.PlaneWaveState.free_nonrelativistic(2.0, U)
    assert pw.residual_nr_stationary(st_nr, U) == pytest.approx(0.0, abs=1e-12)
    assert pw.residual_nr_timedep(st_nr, U) == pytest.approx(0.0, abs=1e-12)
    st_rel = pw.PlaneWaveState.free_relativistic(3.0, UREL)
    scale = (UREL.c * 3.0) ** 2
    assert abs(pw.residual_rel_stationary(st_rel, UREL)) < 1e-9 * scale
    assert abs(pw.residual_rel_timedep(st_rel, UREL)) < 1e-9 * scale**2
    assert pw.residual_spin_half(st_rel, UREL) == pytest.approx(0.0, abs=1e-9)


def test_massless_residual_both_branches():
    stp = pw.PlaneWaveState(p=2.0, epsilon=0.0, E=UREL.c * 2.0, V=0.0)
    assert pw.residual_massless(stp, UREL) == pytest.approx(0.0, abs=1e-12)
    stm = pw.PlaneWaveState(p=2.0, epsilon=0.0, E=-UREL.c * 2.0, V=0.0)
    assert pw.residual_massless(stm, UREL, branch=-1) == pytest.approx(
        0.0, abs=1e-12)


def test_potential_shifts_spin_half_dispersion():
    # E = sqrt(c^2 p^2 + E0^2) E0/(E0+V): doubling (E0+V) halves E
    p = 5.0
    e_free = np.sqrt((UREL.c * p) ** 2 + UREL.E0**2)
    state = pw.PlaneWaveState(p=p, epsilon=0.0, E=e_free / 2.0, V=UREL.E0)
    assert pw.residual_spin_half(state, UREL) == pytest.approx(0.0, abs=1e-9)


def test_e_equals_v_rejected():
    state = pw.PlaneWaveState(p=1.0, epsilon=1.0, E=0.5, V=0.5)
    with pytest.raises(SingularCoefficientError):
        pw.residual_nr_stationary(state, U)
