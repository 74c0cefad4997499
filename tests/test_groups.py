import cmath
import math

import pytest

from magneto import GroupElement, MagnetoError


def test_cyclic_product_and_inverse():
    a = GroupElement.cyclic(2, 5)
    b = GroupElement.cyclic(4, 5)
    assert (a * b).exponent == 1
    assert (a * a.inverse()).is_identity()
    assert a.inverse().exponent == 3


def test_circle_product_wraps_angle():
    a = GroupElement.circle(3.0)
    b = GroupElement.circle(4.0)
    assert (a * b).angle == pytest.approx((7.0) % (2 * math.pi))
    assert (a * a.inverse()).is_identity()


def test_values_are_unit_modulus():
    for g in [GroupElement.cyclic(3, 7), GroupElement.circle(1.234)]:
        assert abs(abs(g.value()) - 1.0) < 1e-14


def test_cyclic_value_matches_root_of_unity():
    g = GroupElement.cyclic(1, 4)
    assert g.value() == pytest.approx(1j)


def test_dist_to_one_closed_form():
    # |1 - xi^j| = 2 sin(pi j / k), exact in the integer representation
    for k in (2, 3, 4, 6, 12):
        for j in range(k):
            g = GroupElement.cyclic(j, k)
            assert g.dist_to_one() == 2.0 * math.sin(math.pi * j / k)
            assert g.dist_to_one() == pytest.approx(abs(1 - g.value()), abs=1e-14)
    c = GroupElement.circle(2.0)
    assert c.dist_to_one() == pytest.approx(abs(1 - cmath.exp(2j)), abs=1e-14)


def test_minus_one_has_distance_two():
    assert GroupElement.cyclic(1, 2).dist_to_one() == 2.0


def test_isclose_and_identity():
    assert GroupElement.circle(2 * math.pi).is_identity()
    assert GroupElement.circle(1.0).isclose(GroupElement.circle(1.0 + 2 * math.pi))
    assert not GroupElement.cyclic(1, 3).is_identity()


def test_mixed_groups_raise():
    with pytest.raises(MagnetoError) as err:
        GroupElement.cyclic(1, 2) * GroupElement.cyclic(1, 3)
    assert err.value.code == "MIXED_GROUPS"
    with pytest.raises(MagnetoError):
        GroupElement.cyclic(0, 2) * GroupElement.circle(0.0)


def test_bad_order_raises():
    with pytest.raises(MagnetoError) as err:
        GroupElement.cyclic(0, 0)
    assert err.value.code == "BAD_GROUP"


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_circle_rejects_non_finite_angle(angle):
    with pytest.raises(MagnetoError) as err:
        GroupElement.circle(angle)
    assert err.value.code == "NONFINITE_ANGLE"
