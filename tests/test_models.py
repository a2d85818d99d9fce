from types import SimpleNamespace

import numpy as np
import pytest

from qbstab import models
from qbstab.certify import Certificate, max_trace
from qbstab.errors import DataFileError
from qbstab.models import (
    get_model,
    model_names,
    scalar_family,
    shear_flow_9,
    three_state_qb,
    two_state,
)
from qbstab.systems import eval_dynamics, validate



class TestTwoState:
    def test_golden_matrices(self):
        s = two_state()
        np.testing.assert_array_equal(s.A, [[-50.0, -16.0], [13.0, -9.0]])
        np.testing.assert_array_equal(s.H, [[0.0, 6.9, 6.9, 0.0], [0.0, 2.75, 2.75, 0.0]])
        assert s.m == 0

    def test_validates(self):
        rep = validate(two_state())
        assert rep.h_symmetric and rep.a_hurwitz

    def test_dynamics_value(self):
        np.testing.assert_allclose(eval_dynamics(two_state(), [1.0, 1.0]), [-52.2, 9.5])

    def test_analysis_feasible_inside_window(self):
        assert isinstance(max_trace(two_state(), 0.4, None, "analysis"), Certificate)


class TestThreeState:
    def test_golden_matrices(self):
        s = three_state_qb()
        assert (s.n, s.m) == (3, 2)
        np.testing.assert_array_equal(s.A, [[-1.7, 1.7, 0.0],
                                            [1.37, -1.0, -0.7],
                                            [0.7, 1.0, -1.6]])
        np.testing.assert_array_equal(s.B, [[0.8, 3.2], [1.1, 0.2], [7.5, 0.6]])
        np.testing.assert_array_equal(s.D[0], [[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        np.testing.assert_array_equal(s.D[1], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.1]])
        np.testing.assert_array_equal(s.h_block(0), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
        np.testing.assert_array_equal(s.h_block(1), [[0.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.1, 0.0, 0.0]])
        np.testing.assert_array_equal(s.h_block(2), [[0.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.0]])

    def test_validates(self):
        rep = validate(three_state_qb())
        assert rep.h_symmetric and rep.a_hurwitz


class TestShearFlow:
    def test_dimensions(self):
        s = shear_flow_9(120.0)
        assert s.n == 9 and s.m == 0

    def test_affine_in_inverse_reynolds(self):
        # two evaluations determine the affine map, which must predict a third
        s120, s240 = shear_flow_9(120.0), shear_flow_9(240.0)
        A1 = (s120.A - s240.A) / (1.0 / 120.0 - 1.0 / 240.0)
        A0 = s120.A - A1 / 120.0
        s160 = shear_flow_9(160.0)
        np.testing.assert_allclose(A0 + A1 / 160.0, s160.A, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(s120.H, s240.H)

    @pytest.mark.parametrize("Re", [120.0, 160.0, 400.0])
    def test_validates(self, Re):
        rep = validate(shear_flow_9(Re))
        assert rep.h_symmetric and rep.a_hurwitz

    def test_rejects_bad_reynolds(self):
        with pytest.raises(ValueError):
            shear_flow_9(-5.0)


class TestScalarFamily:
    def test_autonomous_when_no_input_terms(self):
        s = scalar_family(-1.0, 1.0)
        assert s.m == 0

    def test_driven_when_input_terms(self):
        s = scalar_family(-1.0, 1.0, b=1.0, d=0.5)
        assert s.m == 1
        assert s.B[0, 0] == 1.0 and s.D[0][0, 0] == 0.5

    def test_closed_form_holds(self):
        for eps in (0.25, 0.8):
            cert = max_trace(scalar_family(-1.0, 1.0), eps, 0.01, "analysis")
            assert cert.trace_P == pytest.approx(-eps * (-2.0 + eps + 0.01), abs=1e-6)


class TestRegistry:
    def test_names(self):
        assert set(model_names()) >= {"two-state", "three-state-qb", "shear-flow-9", "scalar"}

    def test_get_with_parameters(self):
        s = get_model("scalar", a=-2.0, h=1.0)
        assert s.A[0, 0] == -2.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_model("does-not-exist")

    def test_unknown_parameter(self):
        with pytest.raises(TypeError):
            get_model("two-state", Re=100.0)


@pytest.mark.parametrize("content, message", [
    (None, "bundled coefficient file 'shear_flow_9.json' is missing; "
           "the 9-state shear-flow model is unavailable"),
    ("{not json", "corrupt coefficient file 'shear_flow_9.json': "
                  "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["missing", "corrupt"])
def test_data_file_rejections(tmp_path, monkeypatch, content, message):
    if content is not None:
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "shear_flow_9.json").write_text(content, encoding="utf-8")
    monkeypatch.setattr(models, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(DataFileError) as info:
        shear_flow_9(120.0)
    assert type(info.value) is DataFileError
    assert str(info.value) == message
