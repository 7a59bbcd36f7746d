import numpy as np
import pytest
import scipy.linalg

from conftest import AGENT_DATA
from resopt.errors import RegulationError, ValidationError
from resopt.plant import (AgentModel, check_rank_condition, is_controllable,
                          is_hurwitz, solve_regulation)


class TestRankCondition:
    def test_agent_one(self):
        d = AGENT_DATA[0]
        assert check_rank_condition(d["A"], d["B"], d["C"])

    def test_agent_three(self):
        d = AGENT_DATA[2]
        assert check_rank_condition(d["A"], d["B"], d["C"])

    def test_zero_input_matrix_fails(self):
        d = AGENT_DATA[0]
        assert not check_rank_condition(d["A"], np.zeros((2, 2)), d["C"])


class TestSolveRegulation:
    def test_pinned_agent_one_triple_satisfies_equations(self):
        d = AGENT_DATA[0]
        a, b, c = (np.array(d[k], float) for k in "ABC")
        u, w, x = (np.array(d[k], float) for k in "UWX")
        assert np.linalg.norm(b @ u - a @ x) < 1e-12
        np.testing.assert_allclose(b @ u, [[0.5], [0.0]])
        assert np.linalg.norm(b @ w - x) < 1e-12
        assert np.linalg.norm(c @ x - np.eye(1)) < 1e-12

    def test_pinned_agent_two_triple_satisfies_equations(self):
        d = AGENT_DATA[1]
        a, b, c = (np.array(d[k], float) for k in "ABC")
        u, w, x = (np.array(d[k], float) for k in "UWX")
        residual = max(np.linalg.norm(b @ u - a @ x),
                       np.linalg.norm(b @ w - x),
                       np.linalg.norm(c @ x - np.eye(1)))
        assert residual < 1e-12

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_solver_residuals(self, idx):
        d = AGENT_DATA[idx]
        a, b, c = (np.array(d[k], float) for k in "ABC")
        u, w, x = solve_regulation(a, b, c)
        residual = max(np.linalg.norm(b @ u - a @ x),
                       np.linalg.norm(b @ w - x),
                       np.linalg.norm(c @ x - np.eye(c.shape[0])))
        assert residual < 1e-9

    def test_identity_plant(self):
        n = 3
        u, w, x = solve_regulation(np.zeros((n, n)), np.eye(n), np.eye(n))
        np.testing.assert_allclose(u, np.zeros((n, n)), atol=1e-12)
        np.testing.assert_allclose(x, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(w, x, atol=1e-12)

    def test_random_solvable_plants(self):
        rng = np.random.default_rng(2024)
        solved = 0
        while solved < 100:
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, p))
            c = rng.standard_normal((1, n))
            if not check_rank_condition(a, b, c):
                continue
            u, w, x = solve_regulation(a, b, c)
            residual = max(np.linalg.norm(b @ u - a @ x),
                           np.linalg.norm(b @ w - x),
                           np.linalg.norm(c @ x - np.eye(1)))
            assert residual < 1e-9
            solved += 1

    def test_inconsistent_system_raises(self):
        # B = 0 makes C X = I unreachable through B W = X
        with pytest.raises(RegulationError):
            solve_regulation(np.zeros((2, 2)), np.zeros((2, 1)),
                             np.array([[1.0, 0.0]]))


class TestHurwitz:
    def test_agent_one_gain(self):
        d = AGENT_DATA[0]
        closed = np.array(d["A"], float) - np.array(d["B"], float) @ np.array(d["K"], float)
        ok, abscissa = is_hurwitz(closed)
        assert ok
        assert abscissa == pytest.approx(-1.5, abs=1e-9)
        eigs = np.sort(np.linalg.eigvals(closed).real)
        np.testing.assert_allclose(eigs, [-3.0, -1.5], atol=1e-9)

    def test_zero_matrix(self):
        ok, abscissa = is_hurwitz(np.zeros((3, 3)))
        assert not ok
        assert abscissa == pytest.approx(0.0)

    def test_negative_identity(self):
        ok, abscissa = is_hurwitz(-np.eye(4))
        assert ok
        assert abscissa == pytest.approx(-1.0)

    def test_agrees_with_independent_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            ok, abscissa = is_hurwitz(m)
            ref = scipy.linalg.eigvals(m).real.max()
            assert abscissa == pytest.approx(ref, abs=1e-9)
            assert ok == (ref < -1e-9)


class TestAgentModel:
    def test_all_demo_agents_build(self, demo_agents):
        assert len(demo_agents) == 3
        for m in demo_agents:
            assert is_controllable(m.A, m.B)

    def test_non_hurwitz_gain_rejected(self):
        d = AGENT_DATA[0]
        with pytest.raises(ValidationError, match="Hurwitz"):
            AgentModel.build(d["A"], d["B"], d["C"], np.zeros((2, 2)))

    def test_bad_regulator_triple_rejected(self):
        d = AGENT_DATA[0]
        with pytest.raises(ValidationError, match="residual"):
            AgentModel.build(d["A"], d["B"], d["C"], d["K"],
                             u=[[9.0], [9.0]], w=d["W"], x=d["X"])

    def test_partial_pin_rejected(self):
        d = AGENT_DATA[0]
        with pytest.raises(ValidationError):
            AgentModel.build(d["A"], d["B"], d["C"], d["K"], u=d["U"])

    def test_solved_triple_used_when_not_pinned(self):
        d = AGENT_DATA[0]
        m = AgentModel.build(d["A"], d["B"], d["C"], d["K"])
        residual = max(np.linalg.norm(m.B @ m.U - m.A @ m.X),
                       np.linalg.norm(m.B @ m.W - m.X),
                       np.linalg.norm(m.C @ m.X - np.eye(1)))
        assert residual < 1e-9
