import numpy as np
import pytest
import scipy.sparse as sp

from gclgcn import autodiff as ad
from oracles import (
    adam_step_whole,
    composed_blend,
    composed_dense,
    composed_project,
    composed_propagate,
    finite_difference_check,
)


def fd_scalar(make_loss, params, h=1e-5):
    return finite_difference_check(make_loss, params, h=h)


class TestForwardValues:
    def test_matmul_identity(self):
        m = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.constant(np.eye(2)), m)
        assert np.array_equal(out.value, m.value)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(m.grad, np.ones((2, 2)))

    def test_mse_self_zero_with_zero_grad(self):
        x = ad.parameter([[1.0, -2.0]])
        loss = ad.mse(x, x)
        assert loss.value[0, 0] == 0.0
        ad.backward(loss)
        assert np.array_equal(x.grad, np.zeros((1, 2)))

    def test_columns(self):
        a = ad.parameter([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        right = ad.columns(a, 1, 3)
        assert np.array_equal(right.value, [[2, 3], [5, 6]])
        ad.backward(ad.reduce_sum(ad.add(right, ad.scale(ad.columns(a, 0, 2), 2.0))))
        # column 1 is in both slices, contributing 1 + 2
        assert np.array_equal(a.grad, [[2.0, 3.0, 1.0], [2.0, 3.0, 1.0]])

    def test_row_sums_and_outer_broadcast(self):
        col = ad.reduce_sum(ad.constant([[1.0, 2.0], [3.0, 4.0]]), axis=1)
        assert np.array_equal(col.value, [[3.0], [7.0]])
        row = ad.constant([[10.0, 20.0, 30.0]])
        assert np.array_equal(ad.add(col, row).value, [[13, 23, 33], [17, 27, 37]])
        assert np.array_equal(ad.hadamard(col, row).value, [[30, 60, 90], [70, 140, 210]])
        assert np.array_equal(ad.add(row, 1.0).value, [[11.0, 21.0, 31.0]])

    def test_scalar_coercion(self):
        t = ad.constant(3.5)
        assert t.shape == (1, 1)


class TestShapeErrors:
    def test_errors_name_the_operation(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(a, b)
        with pytest.raises(ValueError, match="hadamard"):
            ad.hadamard(a, ad.constant(np.zeros((3, 2))))
        with pytest.raises(ValueError, match="mse"):
            ad.mse(a, ad.constant(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="add"):
            ad.add(a, ad.constant(np.zeros((4, 4))))
        with pytest.raises(ValueError, match="columns"):
            ad.columns(a, 2, 4)
        with pytest.raises(ValueError, match="reduce_sum"):
            ad.reduce_sum(a, axis=0)

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="1x1"):
            ad.backward(ad.square(x))


class TestBackwardContracts:
    def test_sum_of_squares(self):
        x = ad.parameter([[3.0]])
        ad.backward(ad.reduce_sum(ad.square(x)))
        assert x.grad[0, 0] == 6.0

    def test_two_backward_calls_accumulate(self):
        x = ad.parameter([[3.0]])
        loss = ad.reduce_sum(ad.square(x))
        ad.backward(loss)
        ad.backward(loss)
        assert x.grad[0, 0] == 12.0

    def test_shared_subexpression_sums_paths(self):
        x = ad.parameter([[5.0]])
        ad.backward(ad.reduce_sum(ad.add(x, x)))
        assert x.grad[0, 0] == 2.0

    def test_mse_linear_grad_at_zero_weights(self):
        rng = np.random.default_rng(4)
        w = ad.parameter(np.zeros((3, 2)))
        x = ad.constant(rng.standard_normal((2, 1)))
        y = ad.constant(rng.standard_normal((3, 1)))

        def loss(_):
            return ad.mse(ad.matmul(w, x), y)

        ad.backward(loss(None))
        want = -(2.0 / 3.0) * y.value @ x.value.T
        assert np.allclose(w.grad, want, atol=1e-12)
        assert fd_scalar(lambda p: loss(None), [w]) <= 1e-6

    def test_broadcast_add_bias_grad(self):
        rng = np.random.default_rng(8)
        b = ad.parameter(np.zeros((1, 3)))
        x = ad.constant(rng.standard_normal((5, 3)))
        ad.backward(ad.reduce_sum(ad.add(x, b)))
        assert np.array_equal(b.grad, np.full((1, 3), 5.0))
        c = ad.parameter(np.zeros((5, 1)))
        ad.backward(ad.reduce_sum(ad.add(x, c)))
        assert np.array_equal(c.grad, np.full((5, 1), 3.0))


def row_sums(x):
    return ad.reduce_sum(x, axis=1)


def middle_columns(x):
    return ad.columns(x, 1, 3)


def _first_row(x):
    return ad.transpose(ad.columns(ad.transpose(x), 0, 1))


def add_outer(x):
    # (r, 1) + (1, c)
    return ad.add(ad.columns(x, 2, 3), _first_row(x))


def hadamard_outer(x):
    # (1, c) * (r, 1)
    return ad.hadamard(_first_row(x), row_sums(x))


def add_scalar(x):
    return ad.add(ad.scale(ad.reduce_sum(x), 0.1), x)


def hadamard_scalar(x):
    return ad.hadamard(x, ad.reduce_sum(x))


def reciprocal(x):
    return ad.signed_pow(x, -1.0)


def inverse_pow(x):
    return ad.signed_pow(x, -1.5)


UNARY_OPS = [
    ("square", ad.square, None),
    ("exp", ad.exp, None),
    ("log", ad.log, "positive"),
    ("sqrt", ad.sqrt, "positive"),
    ("sigmoid", ad.sigmoid, None),
    ("relu", ad.relu, None),
    ("leaky_relu", ad.leaky_relu, None),
    ("transpose", ad.transpose, None),
    ("row_sums", row_sums, None),
    ("columns", middle_columns, None),
    ("add_outer", add_outer, None),
    ("hadamard_outer", hadamard_outer, None),
    ("add_scalar", add_scalar, None),
    ("hadamard_scalar", hadamard_scalar, None),
    ("signed_pow_-1", reciprocal, "positive"),
    ("signed_pow_-1.5", inverse_pow, "positive"),
]


class TestFiniteDifferenceSuite:
    @pytest.mark.parametrize("name,op,domain", UNARY_OPS)
    def test_unary_ops(self, name, op, domain):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((3, 4))
            if domain == "positive":
                x = np.abs(x) + 0.5
            p = ad.parameter(x)
            target = ad.constant(np.full(op(p).shape, 0.3))
            err = fd_scalar(lambda _: ad.mse(op(p), target), [p])
            assert err <= 1e-4, f"{name} seed {seed}: {err}"
            if name == "leaky_relu":
                # At the kink finite differences say nothing; exact zeros
                # and -0.0 are checked against the np.where form instead.
                x[0, :2] = 0.0, -0.0
                out = op(ad.parameter(x))
                g = rng.standard_normal(x.shape)
                g[0, 2:4] = 0.0, -0.0
                assert out.value.tobytes() == np.where(x > 0, x, x * 0.01).tobytes()
                # the rule itself: accumulating into a zeroed .grad turns -0.0 into 0.0
                assert out._rule(g)[0].tobytes() == np.where(x > 0, g, g * 0.01).tobytes()

    def test_binary_and_reduction_ops(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            a = ad.parameter(rng.standard_normal((3, 4)))
            b = ad.parameter(rng.standard_normal((4, 2)))
            c = ad.parameter(rng.standard_normal((3, 2)))

            def loss(_):
                prod = ad.matmul(a, b)
                mixed = ad.hadamard(prod, c)
                plus = ad.add(mixed, ad.scale(c, -0.7))
                return ad.add(
                    ad.scale(ad.reduce_sum(ad.square(plus)), 1.0 / 6.0),
                    ad.scale(ad.add(ad.reduce_sum(prod), ad.reduce_sum(mixed)), 0.01),
                )

            assert fd_scalar(loss, [a, b, c]) <= 1e-4

    def test_columns_clamp_signed_pow(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            a = ad.parameter(rng.standard_normal((3, 5)) * 2)

            def loss(_):
                picked = ad.columns(a, 1, 5)
                powed = ad.signed_pow(picked, 2.0)
                clamped = ad.clamp_min(powed, -1.5)
                return ad.scale(ad.reduce_sum(ad.square(clamped)), 0.25 / 3.0)

            assert fd_scalar(loss, [a]) <= 1e-4


class TestLeakyRelu:
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308])

    @pytest.mark.parametrize("slope", [1e-300, 0.01, 0.2, 1.0])
    def test_matches_where_form_on_special_values(self, slope):
        rng = np.random.default_rng(0)
        x = np.concatenate([self.SPECIAL, rng.standard_normal(71)]).reshape(8, 10)
        g = np.concatenate([self.SPECIAL[::-1], rng.standard_normal(71)]).reshape(8, 10)
        out = ad.leaky_relu(ad.parameter(x), slope)
        assert out.value.tobytes() == np.where(x > 0, x, x * slope).tobytes()
        assert out._rule(g)[0].tobytes() == np.where(x > 0, g, g * slope).tobytes()

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5, np.nan])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(ad.constant(np.ones((2, 2))), slope)


def _sparse(rng, n):
    """A non-symmetric CSR matrix with every diagonal entry stored."""
    m = sp.random(n, n, density=0.4, random_state=rng, format="csr") + sp.eye(n)
    return sp.csr_array(m)


def _layer_op_cases():
    """(id, fused op, composed oracle, operand shapes, extra args): the
    operands are random parameters, constants where marked with a 'c'
    suffix on the shape."""
    cases = [("project", ad.project, composed_project, [(6, 4), (4, 5), (6, 3), (3, 5)], ())]
    cases += [("project-z-const", ad.project, composed_project,
               [(6, 4, "c"), (4, 5), (6, 3, "c"), (3, 5)], ())]
    cases += [("blend", ad.blend, composed_blend, [(6, 4), (6, 4)], (0.3,))]
    for act, activate in (("linear", False), ("leaky", True)):
        cases += [(f"dense-{act}", ad.dense, composed_dense, [(6, 4), (4, 5), (1, 5)], (activate,))]
        cases += [(f"dense-x-const-{act}", ad.dense, composed_dense,
                   [(6, 4, "c"), (4, 5), (1, 5)], (activate,))]
        for assoc, shape in (("narrowing", (7, 3)), ("widening", (3, 7))):
            for const in ("", "z", "w"):
                z = (6, shape[0], "c") if const == "z" else (6, shape[0])
                w = (*shape, "c") if const == "w" else shape
                cases += [(f"propagate-{assoc}-{const or 'params'}-{act}", ad.propagate,
                           composed_propagate, ["adj", z, w], (activate,))]
    return cases


LAYER_OP_CASES = _layer_op_cases()


def _operands(rng, shapes):
    out = []
    for shape in shapes:
        if shape == "adj":
            out.append(_sparse(rng, 6))
        elif shape[-1] == "c":
            out.append(ad.constant(rng.standard_normal(shape[:2])))
        else:
            out.append(ad.parameter(rng.standard_normal(shape)))
    return out


def _weighted_sum(out, weights):
    return ad.reduce_sum(ad.hadamard(out, ad.constant(weights)))


class TestLayerOps:
    """Each layer op against its composed form in tests/oracles.py."""

    @pytest.mark.parametrize("name,op,composed,shapes,extra", LAYER_OP_CASES,
                             ids=[c[0] for c in LAYER_OP_CASES])
    def test_matches_composed_form(self, name, op, composed, shapes, extra):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            operands = _operands(rng, shapes)
            params = [t for t in operands if isinstance(t, ad.Tensor) and t.requires_grad]
            fused = op(*operands, *extra)
            reference = composed(*operands, *extra)
            assert fused.value.tobytes() == reference.value.tobytes(), name
            weights = rng.standard_normal(fused.shape)
            grads = []
            for out in (fused, reference):
                ad.zero_grad(params)
                ad.backward(_weighted_sum(out, weights))
                grads.append([p.grad.copy() for p in params])
            for got, want in zip(*grads):
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name

    @pytest.mark.parametrize("name,op,composed,shapes,extra", LAYER_OP_CASES,
                             ids=[c[0] for c in LAYER_OP_CASES])
    def test_finite_differences(self, name, op, composed, shapes, extra):
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            operands = _operands(rng, shapes)
            params = [t for t in operands if isinstance(t, ad.Tensor) and t.requires_grad]
            weights = rng.standard_normal(op(*operands, *extra).shape)
            err = fd_scalar(lambda _: _weighted_sum(op(*operands, *extra), weights), params)
            assert err <= 1e-6, f"{name} seed {seed}: {err}"

    def test_activation_matches_composed_form_on_special_values(self):
        x = ad.constant(np.concatenate([TestLeakyRelu.SPECIAL, [-2.0, 0.5, 3.0]])[:, None])
        one, zero = ad.constant([[1.0]]), ad.constant([[0.0]])
        adj = sp.csr_array(sp.eye(12))
        for activate in (False, True):
            assert (ad.dense(x, one, zero, activate).value.tobytes()
                    == composed_dense(x, one, zero, activate).value.tobytes())
            assert (ad.propagate(adj, x, one, activate).value.tobytes()
                    == composed_propagate(adj, x, one, activate).value.tobytes())

    def test_keeps_adj_z_only_for_the_weight_gradient(self):
        """(adj @ z) @ w keeps adj @ z in its rule only when w needs it."""
        rng = np.random.default_rng(0)
        adj, z = _sparse(rng, 6), ad.parameter(rng.standard_normal((6, 3)))
        kept = []
        w_value = rng.standard_normal((3, 7))
        for w in (ad.parameter(w_value), ad.constant(w_value)):
            cells = [c.cell_contents for c in ad.propagate(adj, z, w, True)._rule.__closure__]
            kept.append(sum(isinstance(c, np.ndarray) and c.shape == (6, 3) and c is not z.value
                            for c in cells))
        assert kept == [1, 0]

    def test_errors_name_the_operation(self):
        a, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="project"):
            ad.project(a, b, a, a)
        with pytest.raises(ValueError, match="blend"):
            ad.blend(a, b, 0.5)
        with pytest.raises(ValueError, match="dense"):
            ad.dense(a, b, ad.constant(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="propagate"):
            ad.propagate(sp.csr_array(sp.eye(3)), a, b)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = ad.parameter([[1.0, 2.0]])
        st = ad.AdamState.for_params([p], lr=0.1)
        ad.adam_step([p], [np.zeros((1, 2))], st)
        assert np.array_equal(p.value, [[1.0, 2.0]])
        assert st.step == 1

    def test_first_step_moves_by_lr(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_params([p], lr=0.1)
        ad.adam_step([p], [np.ones((1, 1))], st)
        assert p.value[0, 0] == pytest.approx(-0.1, abs=1e-8)

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(42)
            p = ad.parameter(rng.standard_normal((3, 3)))
            st = ad.AdamState.for_params([p], lr=0.01)
            for i in range(25):
                g = np.sin(p.value + i)
                ad.adam_step([p], [g], st)
            return p.value.copy()

        assert np.array_equal(run(), run())

    def test_blocked_update_equals_whole_array_update(self):
        block = ad._ADAM_BLOCK
        shapes = [(3, 5), (1, block), (2, block), (3, block // 2 + 7), (0, 4)]
        rng = np.random.default_rng(0)
        values = [rng.standard_normal(shape) for shape in shapes]
        blocked = [ad.parameter(v) for v in values]
        whole = [ad.parameter(v) for v in values]
        st_blocked = ad.AdamState.for_params(blocked, lr=0.01)
        st_whole = ad.AdamState.for_params(whole, lr=0.01)
        for _ in range(4):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
            ad.adam_step(blocked, grads, st_blocked)
            adam_step_whole(whole, grads, st_whole)
            for a, b in zip(blocked, whole):
                assert a.value.tobytes() == b.value.tobytes()
            for a, b in zip(st_blocked.m + st_blocked.v, st_whole.m + st_whole.v):
                assert a.tobytes() == b.tobytes()
        assert st_blocked.step == st_whole.step == 4

    def test_state_holds_only_the_moments(self):
        params = [ad.parameter(np.ones((3, 4))), ad.parameter(np.ones((1, 5)))]
        st = ad.AdamState.for_params(params, lr=0.1)
        held = [a for value in vars(st).values() if isinstance(value, list) for a in value]
        assert sum(a.nbytes for a in held) == 2 * sum(p.value.nbytes for p in params)

    @pytest.mark.parametrize("role", ["value", "gradient"])
    def test_non_contiguous_array_rejected(self, role):
        params = [ad.parameter(np.ones((1, 2))), ad.parameter(np.ones((2, 3)), name="w")]
        st = ad.AdamState.for_params(params, lr=0.1)
        grads = [np.ones((1, 2)), np.ones((2, 3))]
        if role == "value":
            params[1].value = np.asfortranarray(params[1].value)
        else:
            grads[1] = np.ones((2, 6))[:, ::2]
        with pytest.raises(ValueError, match=f"{role} of parameter 1 .*w.* is not C-contiguous"):
            ad.adam_step(params, grads, st)

    def test_mismatched_state_rejected(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_params([p, ad.parameter([[0.0]])], lr=0.1)
        with pytest.raises(ValueError, match="parameter list"):
            ad.adam_step([p], [np.zeros((1, 1))], st)


def test_finite_difference_check_on_square():
    x = ad.parameter([[3.0]])
    err = finite_difference_check(
        lambda _: ad.reduce_sum(ad.square(x)), [x]
    )
    assert err <= 1e-6
