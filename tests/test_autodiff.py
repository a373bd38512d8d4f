import functools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from gclgcn import autodiff as ad
from gclgcn.cluster import student_t, target_distribution
import oracles
from oracles import (
    adam_step_whole,
    backward_pair,
    composed_blend,
    composed_cluster_kl,
    composed_decoder_mse,
    composed_dense,
    composed_info_nce,
    composed_project,
    composed_propagate,
    finite_difference_check,
)


def fd_scalar(make_loss, params, h=1e-5):
    return finite_difference_check(make_loss, params, h=h)


class TestForwardValues:
    def test_matmul_identity(self):
        m = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(sp.csr_array(np.eye(2)), m)
        assert np.array_equal(out.value, m.value)
        (gm,) = oracles.grads(oracles.reduce_sum(out), [m])
        assert np.array_equal(gm, np.ones((2, 2)))

    def test_mse_self_zero_with_zero_grad(self):
        x = ad.parameter([[1.0, -2.0]])
        loss = ad.mse(x, x)
        assert loss.value[0, 0] == 0.0
        (gx,) = oracles.grads(loss, [x])
        assert np.array_equal(gx, np.zeros((1, 2)))

    def test_columns(self):
        a = ad.parameter([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        right = oracles.columns(a, 1, 3)
        assert np.array_equal(right.value, [[2, 3], [5, 6]])
        (ga,) = oracles.grads(oracles.reduce_sum(
            ad.weighted_sum([(1.0, right), (2.0, oracles.columns(a, 0, 2))])), [a])
        # column 1 is in both slices, contributing 1 + 2
        assert np.array_equal(ga, [[2.0, 3.0, 1.0], [2.0, 3.0, 1.0]])

    def test_row_sums_and_outer_broadcast(self):
        col = oracles.reduce_sum(ad.constant([[1.0, 2.0], [3.0, 4.0]]), axis=1)
        assert np.array_equal(col.value, [[3.0], [7.0]])
        row = ad.constant([[10.0, 20.0, 30.0]])
        assert np.array_equal(oracles.add(col, row).value, [[13, 23, 33], [17, 27, 37]])
        assert np.array_equal(oracles.hadamard(col, row).value, [[30, 60, 90], [70, 140, 210]])
        assert np.array_equal(oracles.add(row, 1.0).value, [[11.0, 21.0, 31.0]])

    def test_scalar_coercion(self):
        t = ad.constant(3.5)
        assert t.shape == (1, 1)


class TestShapeErrors:
    def test_errors_name_the_operation(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"^matmul: left operand must be a sparse matrix"):
            ad.matmul(a, b)
        with pytest.raises(ValueError, match=r"^matmul: inner dims differ"):
            ad.matmul(sp.csr_array((3, 3)), b)
        with pytest.raises(ValueError, match="hadamard"):
            oracles.hadamard(a, ad.constant(np.zeros((3, 2))))
        with pytest.raises(ValueError, match="mse"):
            ad.mse(a, ad.constant(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="weighted_sum"):
            ad.weighted_sum([(1.0, a), (1.0, ad.constant(np.zeros((4, 4))))])
        with pytest.raises(ValueError, match=r"^weighted_sum: shapes differ: \(2, 3\) vs \(1, 3\)$"):
            ad.weighted_sum([(1.0, a), (0.5, b), (1.0, ad.constant(np.zeros((1, 3))))])
        with pytest.raises(ValueError, match=r"^weighted_sum: no terms$"):
            ad.weighted_sum([])
        with pytest.raises(ValueError, match="reduce_sum"):
            oracles.reduce_sum(a, axis=0)

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="1x1"):
            oracles.grads(oracles.square(x), [x])


class TestBackwardContracts:
    def test_sum_of_squares(self):
        x = ad.parameter([[3.0]])
        (gx,) = oracles.grads(oracles.reduce_sum(oracles.square(x)), [x])
        assert gx[0, 0] == 6.0

    def test_two_backward_calls_hand_over_the_same_gradients(self):
        x = ad.parameter([[3.0]])
        loss = oracles.reduce_sum(oracles.square(x))
        oracles.grads(loss, [x])
        (gx,) = oracles.grads(loss, [x])
        assert gx[0, 0] == 6.0

    def test_shared_subexpression_sums_paths(self):
        x = ad.parameter([[5.0]])
        (gx,) = oracles.grads(oracles.reduce_sum(ad.weighted_sum([(1.0, x), (1.0, x)])), [x])
        assert gx[0, 0] == 2.0

    def test_mse_linear_grad_at_zero_weights(self):
        rng = np.random.default_rng(4)
        w = ad.parameter(np.zeros((3, 2)))
        x = ad.constant(rng.standard_normal((2, 1)))
        y = ad.constant(rng.standard_normal((3, 1)))

        def loss(_):
            return ad.mse(oracles.matmul(w, x), y)

        (gw,) = oracles.grads(loss(None), [w])
        want = -(2.0 / 3.0) * y.value @ x.value.T
        assert np.allclose(gw, want, atol=1e-12)
        assert fd_scalar(lambda p: loss(None), [w]) <= 1e-6

    def test_broadcast_add_bias_grad(self):
        rng = np.random.default_rng(8)
        b = ad.parameter(np.zeros((1, 3)))
        x = ad.constant(rng.standard_normal((5, 3)))
        (gb,) = oracles.grads(oracles.reduce_sum(oracles.add(x, b)), [b])
        assert np.array_equal(gb, np.full((1, 3), 5.0))
        c = ad.parameter(np.zeros((5, 1)))
        (gc,) = oracles.grads(oracles.reduce_sum(oracles.add(x, c)), [c])
        assert np.array_equal(gc, np.full((5, 1), 3.0))


class TestReleasedTape:
    def test_backward_on_a_released_tape_raises(self):
        x = ad.parameter([[3.0]])
        squared = oracles.square(x)
        loss = oracles.reduce_sum(squared)
        (gx,) = oracles.grads(loss, [x], release=True)
        assert gx[0, 0] == 6.0
        with pytest.raises(ValueError, match=r"^backward: the tape was released"):
            oracles.grads(loss, [x])
        # A loss that shares a released node reaches the same error.
        with pytest.raises(ValueError, match=r"^backward: the tape was released"):
            oracles.grads(oracles.reduce_sum(ad.weighted_sum([(2.0, squared)])), [x])

    def test_release_frees_node_values_and_kept_arrays_during_the_sweep(self):
        """Once backward(release=True) has swept past them, an intermediate
        node's output and the q, k and v a wide attention rule keeps for its
        gradients are freed, also those of a node the caller still holds: a
        probe node the sweep reaches last sees them dead, and so does the
        caller when backward returns. Without release the loss keeps them
        all alive."""
        rng = np.random.default_rng(13)
        adj = _sparse(rng, 6)
        z = ad.parameter(rng.standard_normal((6, 3)))
        cent, bias = ad.constant(rng.standard_normal((6, 1))), rng.standard_normal(adj.nnz)
        w1 = [ad.parameter(rng.standard_normal((4, 3))) for _ in range(3)]
        w2 = ad.parameter(rng.standard_normal((3, 9)))

        def kept_qkv(node):
            cells = (c.cell_contents for c in node._rule.__closure__)
            (q, k, v, _), = dict(zip(node._rule.__code__.co_freevars, cells))["kept"]
            return q, k, v

        def probe_rule(g):
            alive.append([ref() is not None for ref in refs])
            return (g,)

        runs = []
        for release in (False, True):
            alive = []
            probe = ad.Tensor(z.value, _parents=(z,), _rule=probe_rule)
            # 3 + 1 input columns against a head of 3: the wide form, which keeps q, k, v
            held = ad.attention(probe, cent, w1, adj, bias, activate=True)
            mid = ad.propagate(adj, held, w2)
            refs = [weakref.ref(a) for a in (mid.value, *kept_qkv(held))]
            loss = oracles.reduce_sum(oracles.square(mid))
            del probe, mid
            oracles.grads(loss, [z, *w1, w2], release=release)
            runs.append(alive + [[ref() is not None for ref in refs]])
        assert runs == [[[True] * 4] * 2, [[False] * 4] * 2]


def row_sums(x):
    return oracles.reduce_sum(x, axis=1)


def middle_columns(x):
    return oracles.columns(x, 1, 3)


def _first_row(x):
    return oracles.transpose(oracles.columns(oracles.transpose(x), 0, 1))


def add_outer(x):
    # (r, 1) + (1, c)
    return oracles.add(oracles.columns(x, 2, 3), _first_row(x))


def hadamard_outer(x):
    # (1, c) * (r, 1)
    return oracles.hadamard(_first_row(x), row_sums(x))


def add_scalar(x):
    return oracles.add(oracles.scale(oracles.reduce_sum(x), 0.1), x)


def hadamard_scalar(x):
    return oracles.hadamard(x, oracles.reduce_sum(x))


def reciprocal(x):
    return oracles.signed_pow(x, -1.0)


def inverse_pow(x):
    return oracles.signed_pow(x, -1.5)


UNARY_OPS = [
    ("square", oracles.square, None),
    ("exp", oracles.exp, None),
    ("log", oracles.log, "positive"),
    ("sqrt", oracles.sqrt, "positive"),
    ("sigmoid", oracles.sigmoid, None),
    ("relu", ad.relu, None),
    ("leaky_relu", oracles.leaky_relu, None),
    ("transpose", oracles.transpose, None),
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
                # the rule itself: accumulating into a zeroed gradient turns -0.0 into 0.0
                assert out._rule(g)[0].tobytes() == np.where(x > 0, g, g * 0.01).tobytes()

    def test_binary_and_reduction_ops(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            a = ad.parameter(rng.standard_normal((3, 4)))
            b = ad.parameter(rng.standard_normal((4, 2)))
            c = ad.parameter(rng.standard_normal((3, 2)))

            def loss(_):
                prod = oracles.matmul(a, b)
                mixed = oracles.hadamard(prod, c)
                plus = oracles.add(mixed, oracles.scale(c, -0.7))
                return oracles.add(
                    oracles.scale(oracles.reduce_sum(oracles.square(plus)), 1.0 / 6.0),
                    oracles.scale(oracles.add(oracles.reduce_sum(prod),
                                              oracles.reduce_sum(mixed)), 0.01),
                )

            assert fd_scalar(loss, [a, b, c]) <= 1e-4

    def test_columns_clamp_signed_pow(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            a = ad.parameter(rng.standard_normal((3, 5)) * 2)

            def loss(_):
                picked = oracles.columns(a, 1, 5)
                powed = oracles.signed_pow(picked, 2.0)
                clamped = oracles.clamp_min(powed, -1.5)
                return oracles.scale(oracles.reduce_sum(oracles.square(clamped)), 0.25 / 3.0)

            assert fd_scalar(loss, [a]) <= 1e-4


class TestLeakyRelu:
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308])

    def test_matches_where_form_on_special_values(self):
        slope = ad.LEAKY_SLOPE
        rng = np.random.default_rng(0)
        x = np.concatenate([self.SPECIAL, rng.standard_normal(71)]).reshape(8, 10)
        g = np.concatenate([self.SPECIAL[::-1], rng.standard_normal(71)]).reshape(8, 10)
        out = oracles.leaky_relu(ad.parameter(x))
        assert out.value.tobytes() == np.where(x > 0, x, x * slope).tobytes()
        assert out._rule(g)[0].tobytes() == np.where(x > 0, g, g * slope).tobytes()


    @pytest.mark.parametrize("block_elements", [1 << 16, 30, 1])
    def test_gradient_helper_reads_the_input_sign_from_the_output(
        self, block_elements, monkeypatch
    ):
        """The backward reads only the leaky ReLU output, whose sign is the
        input's on every special value (-1e-322 * 0.01 underflows to -0.0),
        in blocks of rows that need not divide the row count."""
        monkeypatch.setattr(ad, "_GATHER_ELEMENTS", block_elements)
        rng = np.random.default_rng(1)
        x = np.concatenate([self.SPECIAL, [-1e-322], rng.standard_normal(70)]).reshape(8, 10)
        g = np.concatenate([self.SPECIAL[::-1], rng.standard_normal(71)]).reshape(8, 10)
        g[1, :2] = np.nan, -np.nan
        out = x.copy()
        ad._leaky_in_place(out)
        assert out.tobytes() == np.maximum(x, x * ad.LEAKY_SLOPE).tobytes()
        want = g * np.where(x > 0, 1.0, ad.LEAKY_SLOPE)
        assert ad._leaky_grad(g, out).tobytes() == want.tobytes()


class TestRelu:
    def test_keeps_nan_and_every_finite_result(self):
        x = np.concatenate([TestLeakyRelu.SPECIAL, [-2.0, 0.5]]).reshape(1, -1)
        g = np.linspace(-3.0, 3.0, x.size).reshape(x.shape)
        out = ad.relu(ad.parameter(x))
        nan = np.isnan(x)
        want = np.where(x > 0, x, 0.0)
        assert out.value[~nan].tobytes() == want[~nan].tobytes()
        assert np.isnan(out.value[nan]).all()
        d = out._rule(g)[0]
        assert d[~nan].tobytes() == (g * (x > 0))[~nan].tobytes()
        assert np.isnan(d[nan]).all()


    def test_gradient_is_the_heaviside_step_of_the_input(self):
        """The backward multiplies by the sign of the kept output, which is
        np.heaviside(x, 0.0) on NaN, signed zeros, infinities and
        subnormals; the node keeps no array but its output."""
        rng = np.random.default_rng(3)
        x = np.concatenate([TestLeakyRelu.SPECIAL, rng.standard_normal(11)]).reshape(4, 5)
        g = np.concatenate([rng.standard_normal(15), [np.inf, -np.inf, np.nan, 0.0, -0.0]])
        g = g.reshape(x.shape)
        out = ad.relu(ad.parameter(x))
        with np.errstate(invalid="ignore"):  # inf * 0.0
            assert out._rule(g)[0].tobytes() == (g * np.heaviside(x, 0.0)).tobytes()
        kept = [c.cell_contents for c in out._rule.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(kept) == 1 and kept[0] is out.value


def _sparse(rng, n):
    """A non-symmetric CSR matrix with every diagonal entry stored."""
    m = sp.random(n, n, density=0.4, random_state=rng, format="csr") + sp.eye(n)
    return sp.csr_array(m)


def _injection(a, b, eps):
    """The epsilon-injection of a into b as the model records it."""
    return ad.weighted_sum([(eps, a), (1.0 - eps, b)])


def _weighted(*args):
    """weighted_sum over the operands, with the tuple of weights last."""
    *xs, weights = args
    return ad.weighted_sum(list(zip(weights, xs)))


def _weighted_chain(*args):
    """The same sum as the chain of scales and adds weighted_sum replaced."""
    *xs, weights = args
    return functools.reduce(oracles.add, [oracles.scale(x, w) for w, x in zip(weights, xs)])


# Weights of 1 to 4 terms, with the 1.0 and 0.1 of the loss total and an
# inexact 1/3 among them.
WEIGHTED_SUM_WEIGHTS = {1: (0.7,), 2: (1.0, -0.3), 3: (0.4, 1.0, 1.0 / 3.0),
                        4: (1.0, 0.1, 1.0, 2.5)}


def _layer_op_cases():
    """(id, fused op, composed oracle, operand shapes, extra args): the
    operands are random parameters, constants where marked with a 'c'
    suffix on the shape."""
    cases = [("project", oracles.project, composed_project, [(6, 4), (4, 5), (6, 3), (3, 5)], ())]
    cases += [("project-z-const", oracles.project, composed_project,
               [(6, 4, "c"), (4, 5), (6, 3, "c"), (3, 5)], ())]
    cases += [("blend", _injection, composed_blend, [(6, 4), (6, 4)], (0.3,))]
    for terms, weights in WEIGHTED_SUM_WEIGHTS.items():
        cases += [(f"weighted_sum-{terms}", _weighted, _weighted_chain, [(6, 4)] * terms,
                   (weights,))]
    cases += [("weighted_sum-scalars", _weighted, _weighted_chain, [(1, 1)] * 4,
               ((1.0, 0.1, 1.0, 1.0),))]
    cases += [("weighted_sum-const", _weighted, _weighted_chain, [(6, 4), (6, 4, "c"), (6, 4)],
               ((0.5, 0.25, 1.0),))]
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
WEIGHTED_SUM_CASES = [c for c in LAYER_OP_CASES if c[1] in (_injection, _weighted)]


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
    return oracles.reduce_sum(oracles.hadamard(out, ad.constant(weights)))


class TestInjectedPropagate:
    """propagate with inject = (eps, h) forms the epsilon-blend itself; its
    value and every gradient are the bytes of the weighted_sum blend
    followed by propagate without it."""

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7)], ids=["narrowing", "widening"])
    @pytest.mark.parametrize("activate", [False, True], ids=["linear", "leaky"])
    @pytest.mark.parametrize("shared", [False, True], ids=["h-leaf", "h-shared"])
    def test_matches_weighted_sum_then_op_bytes(self, shape, activate, shared):
        """h-leaf: one layer reads the blend of a parameter h. h-shared: two
        channels of three layers each read the blends of two stacked dense
        outputs, as the graph channels read the autoencoder's, so each dense
        output has three consumers whose contributions are summed in the
        order the sweep reaches them."""
        d_in, d_out = shape
        for seed in range(4):
            rng = np.random.default_rng(seed)
            adj = _sparse(rng, 6)
            width = 2 if shared else 1
            # the blended layers take both associations
            ladder = [d_in, d_out, d_in, d_out] if shared else [d_in, d_in, d_out]
            ws = [[ad.parameter(rng.standard_normal((a, b)) / 2)
                   for a, b in zip(ladder[:-1], ladder[1:])] for _ in range(width)]
            channels = [[functools.partial(_injected_propagate, adj, w=w, activate=activate)
                         for w in chain] for chain in ws]
            x = ad.parameter(rng.standard_normal((6, d_in)))
            if shared:
                ae = _operands(rng, [(d_in, ladder[1]), (1, ladder[1]), (ladder[1], ladder[2]),
                                     (1, ladder[2])])
                params = [x, *ae, *(w for chain in ws for w in chain)]

                def hs_of():
                    h1 = ad.dense(x, *ae[:2], activate=True)
                    return [h1, ad.dense(h1, *ae[2:], activate=True)]
            else:
                h = ad.parameter(rng.standard_normal((6, ladder[1])))
                params = [x, h, *ws[0]]
                hs_of = functools.partial(list, [h])
            fused, reference = (oracles.injection_bytes(channels, hs_of, x, 0.3, params, f, seed)
                                for f in (True, False))
            assert fused == reference


def _injected_propagate(adj, z, inject, w, activate):
    return ad.propagate(adj, z, w, activate, inject)


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
                grads.append(oracles.grads(_weighted_sum(out, weights), params))
            for got, want in zip(*grads):
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name

    @pytest.mark.parametrize("name,op,composed,shapes,extra", WEIGHTED_SUM_CASES,
                             ids=[c[0] for c in WEIGHTED_SUM_CASES])
    def test_weighted_sum_matches_its_chain_bytes(self, name, op, composed, shapes, extra):
        """weighted_sum sums left to right as the scale and add chain did,
        so its value and every gradient are that chain's bytes."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            operands = _operands(rng, shapes)
            params = [t for t in operands if t.requires_grad]
            fused, reference = op(*operands, *extra), composed(*operands, *extra)
            assert fused.value.tobytes() == reference.value.tobytes(), name
            weights = rng.standard_normal(fused.shape)
            grads = []
            for out in (fused, reference):
                grads.append([g.tobytes() for g in oracles.grads(_weighted_sum(out, weights),
                                                                  params)])
            assert grads[0] == grads[1], name

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

    @pytest.mark.parametrize("op", ["dense", "propagate", "attention"])
    def test_activated_node_keeps_no_array_beside_its_output(self, op):
        """An activated node holds no more memory than the linear one: the
        backward reads the sign from the output, so no mask is kept."""
        n, d, width = 200, 8, 64
        rng = np.random.default_rng(4)
        z, c = ad.parameter(rng.standard_normal((n, d))), ad.constant(rng.standard_normal((n, 3)))
        adj = _sparse(rng, n)
        bias = rng.standard_normal(adj.nnz)
        w = [ad.parameter(rng.standard_normal((d + 3, width))) for _ in range(3)]
        wz = ad.parameter(w[0].value[:d])
        b = ad.parameter(np.zeros((1, width)))
        build = {
            "dense": lambda activate: ad.dense(z, wz, b, activate),
            "propagate": lambda activate: ad.propagate(adj, z, wz, activate),
            "attention": lambda activate: ad.attention(z, c, w, adj, bias, 2, activate),
        }[op]
        kept = []
        for activate in (False, True):
            tracemalloc.start()
            try:
                node = build(activate)
                kept.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert node.shape == (n, width // 2 if op == "attention" else width)
            del node
        assert kept[1] - kept[0] < n * width // 8

    def test_keeps_no_adj_z_for_the_weight_gradient(self):
        """(adj @ z) @ w keeps no adj @ z, whether or not w needs its
        gradient: the weight gradient rebuilds it."""
        rng = np.random.default_rng(0)
        adj, z = _sparse(rng, 6), ad.parameter(rng.standard_normal((6, 3)))
        az = (adj @ z.value).tobytes()
        kept = []
        w_value = rng.standard_normal((3, 7))
        for w in (ad.parameter(w_value), ad.constant(w_value)):
            held = oracles.tape_arrays(ad.propagate(adj, z, w, True), [z, w])
            kept.append(sum(h.array.tobytes() == az for h in held))
        assert kept == [0, 0]

    def test_errors_name_the_operation(self):
        a, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="attention"):
            ad.attention(a, a, [b] * 3, sp.csr_array(sp.eye(2)), np.zeros(2))
        with pytest.raises(ValueError, match=r"^weighted_sum: shapes differ"):
            ad.weighted_sum([(0.5, a), (0.5, b)])
        with pytest.raises(ValueError, match="dense"):
            ad.dense(a, b, ad.constant(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="propagate"):
            ad.propagate(sp.csr_array(sp.eye(3)), a, b)
        with pytest.raises(ValueError, match=r"^propagate: injected input is \(3, 2\), z is \(2, 3\)$"):
            ad.propagate(sp.csr_array(sp.eye(2)), a, b, inject=(0.5, b))


def _views(rng, n, d, case):
    """Two (n, d) parameters for an info_nce case; "identical" gives one
    integer-valued parameter twice, so every diagonal distance is exactly 0,
    and the other special cases reach the norm floors."""
    if case == "identical":
        c = ad.parameter(rng.integers(-3, 4, size=(n, d)).astype(float))
        return c, c
    c1, c2 = (ad.parameter(rng.standard_normal((n, d))) for _ in range(2))
    if case == "zero-row-c1":
        c1.value[n // 2] = 0.0
    elif case == "zero-row-c2":
        c2.value[0] = 0.0
    elif case == "tiny-rows":
        # a row norm below its 1e-12 floor, and a pair of rows whose norm
        # product is below the reciprocal's 1e-12 floor
        c1.value[0] *= 1e-14
        c1.value[n - 1] *= 1e-7
        c2.value[1] *= 1e-7
    return c1, c2


def _adjacency(rng, n, isolated=()):
    """A symmetric 0/1 CSR adjacency without self-loops; the nodes in
    isolated have no edge."""
    upper = np.triu(rng.random((n, n)) < 0.2, k=1)
    a = (upper | upper.T).astype(float)
    a[list(isolated), :] = 0.0
    a[:, list(isolated)] = 0.0
    return sp.csr_array(a)


def _agree(op, composed, operands, params):
    """op and composed agree in value and in every parameter gradient to
    1e-12 relative."""
    results = []
    for f in (op, composed):
        loss = f(*operands)
        results.append((loss.value[0, 0], oracles.grads(loss, params)))
    (got, got_grads), (want, want_grads) = results
    assert abs(got - want) <= 1e-12 * abs(want)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# (n, rows per block): blocks that do not divide n, and n below one block.
LOSS_BLOCKINGS = [(7, 3), (10, 4), (12, 12), (9, 128), (300, 128)]
INFO_NCE_CASES = ["random", "zero-row-c1", "zero-row-c2", "tiny-rows", "identical"]


class TestRowBlockedLosses:
    """info_nce and decoder_mse against their composed forms in tests/oracles.py."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", INFO_NCE_CASES)
    @pytest.mark.parametrize("n,rows", LOSS_BLOCKINGS)
    def test_info_nce_matches_composed_form(self, monkeypatch, n, rows, case, beta):
        monkeypatch.setattr(ad, "_LOSS_ROWS", rows)
        for seed in range(3):
            c1, c2 = _views(np.random.default_rng(seed), n, 4, case)
            params = [c1] if c1 is c2 else [c1, c2]
            _agree(ad.info_nce, composed_info_nce, (c1, c2, beta, 0.5), params)

    @pytest.mark.parametrize("isolated", [(), (0, 5)])
    @pytest.mark.parametrize("n,rows", LOSS_BLOCKINGS)
    def test_decoder_mse_matches_composed_form(self, monkeypatch, n, rows, isolated):
        monkeypatch.setattr(ad, "_LOSS_ROWS", rows)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            z = ad.parameter(rng.standard_normal((n, 3)))
            _agree(ad.decoder_mse, composed_decoder_mse, (z, _adjacency(rng, n, isolated)), [z])

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_info_nce_finite_differences(self, monkeypatch, beta):
        monkeypatch.setattr(ad, "_LOSS_ROWS", 3)
        for seed in range(3):
            c1, c2 = _views(np.random.default_rng(400 + seed), 7, 3, "random")
            err = fd_scalar(lambda _: ad.info_nce(c1, c2, beta, 0.7), [c1, c2])
            assert err <= 1e-6, f"seed {seed}: {err}"

    def test_decoder_mse_finite_differences(self, monkeypatch):
        monkeypatch.setattr(ad, "_LOSS_ROWS", 3)
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            z = ad.parameter(rng.standard_normal((7, 3)))
            a = _adjacency(rng, 7, isolated=(2,))
            err = fd_scalar(lambda _: ad.decoder_mse(z, a), [z])
            assert err <= 1e-6, f"seed {seed}: {err}"

    def test_peak_allocation_below_one_square_array(self):
        n = 2000
        rng = np.random.default_rng(0)
        c1, c2 = (ad.parameter(rng.standard_normal((n, 16))) for _ in range(2))
        z = ad.parameter(rng.standard_normal((n, 10)))
        a = _adjacency(rng, n)
        for loss, params in ((lambda: ad.info_nce(c1, c2, 1.0, 0.5), [c1, c2]),
                             (lambda: ad.decoder_mse(z, a), [z])):
            tracemalloc.start()
            try:
                oracles.grads(loss(), params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8

    def test_two_backward_calls_hand_over_the_same_gradients(self):
        rng = np.random.default_rng(1)
        c1, c2 = _views(rng, 9, 3, "random")
        z = ad.parameter(rng.standard_normal((9, 3)))
        for loss, params in ((ad.info_nce(c1, c2, 1.0, 0.5), [c1, c2]),
                             (ad.decoder_mse(z, _adjacency(rng, 9)), [z])):
            once = oracles.grads(loss, params)
            for again, g in zip(oracles.grads(loss, params), once):
                assert again.tobytes() == g.tobytes()

    def test_errors_name_the_operation(self):
        a, b = ad.constant(np.ones((3, 2))), ad.constant(np.ones((4, 2)))
        with pytest.raises(ValueError, match="info_nce"):
            ad.info_nce(a, b, 1.0, 0.5)
        with pytest.raises(ValueError, match="info_nce: temperature"):
            ad.info_nce(a, a, 1.0, 0.0)
        with pytest.raises(ValueError, match="decoder_mse"):
            ad.decoder_mse(a, sp.csr_array(np.ones((4, 4))))
        with pytest.raises(ValueError, match="decoder_mse"):
            ad.decoder_mse(a, np.ones((3, 3)))


def _head_operands(rng, case):
    """z, z_ae (n x d parameters) and centroids for a cluster_kl case. In
    "floored", the last centroid is so far away that every Q and Q' entry
    in its column is below the KL floor of 1e-12, and the first row of z
    sits on the first centroid, at a squared distance of exactly 0, where
    the clamp at 0 is active."""
    n, d, k = 9, 3, 4
    z, z_ae = (ad.parameter(rng.standard_normal((n, d))) for _ in range(2))
    c = ad.parameter(rng.standard_normal((k, d)))
    if case == "floored":
        c.value[-1] = [1e9, 0.0, 0.0]
        c.value[0] = z.value[0] = [1.0, -2.0, 3.0]
    return z, z_ae, c


class TestClusterKl:
    """cluster_kl against the composed soft_assign and kl_div head in
    tests/oracles.py, and against finite differences."""

    WEIGHTS = [(0.3, 0.7), (1.0, 0.0), (0.0, 1.0)]

    @pytest.mark.parametrize("alpha,beta", WEIGHTS)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", ["random", "floored"])
    @pytest.mark.parametrize("target", ["own", "given"])
    def test_matches_composed_form(self, case, t, alpha, beta, target):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            z, z_ae, c = _head_operands(rng, case)
            p = None if target == "own" else rng.dirichlet(np.ones(4), size=9)
            head = ad.cluster_kl(z, z_ae, c, p, t, alpha, beta)
            if case == "floored":
                assert head.q[:, -1].max() < 1e-12 and head.q_prime[:, -1].max() < 1e-12
                assert student_t(z.value, c.value, t)[1][0, 0] == 0.0
            q = oracles.soft_assign(z, c, t)
            assert np.array_equal(head.q, q.value)
            assert np.array_equal(head.q_prime, oracles.soft_assign(z_ae, c, t).value)
            assert np.array_equal(head.p, target_distribution(q.value) if p is None else p)
            _agree(ad.cluster_kl, composed_cluster_kl,
                   (z, z_ae, c, p, t, alpha, beta), [z, z_ae, c])

    def test_kl_values_are_the_composed_terms(self):
        rng = np.random.default_rng(5)
        z, z_ae, c = _head_operands(rng, "floored")
        head = ad.cluster_kl(z, z_ae, c, None, 1.0, 0.3, 0.7)
        q = oracles.soft_assign(z, c, 1.0)
        want = (oracles.kl_div(ad.constant(head.p), q),
                oracles.kl_div(q, oracles.soft_assign(z_ae, c, 1.0)))
        assert head.kl == tuple(float(w.value[0, 0]) for w in want)
        assert head.value[0, 0] == head.kl[0] * 0.3 + head.kl[1] * 0.7

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_finite_differences(self, t):
        for seed in range(3):
            rng = np.random.default_rng(600 + seed)
            z, z_ae, c = _head_operands(rng, "random")
            p = rng.dirichlet(np.ones(4), size=9)
            err = fd_scalar(lambda _: ad.cluster_kl(z, z_ae, c, p, t, 0.6, 0.4), [z, z_ae, c])
            assert err <= 1e-6, f"seed {seed}: {err}"

    def test_errors_name_the_operation(self):
        z, c = np.zeros((4, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"^cluster_kl: t must be positive"):
            ad.cluster_kl(z, z, c, None, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^cluster_kl: t must be positive"):
            ad.cluster_kl(z, z, c, None, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^cluster_kl: p is \(4, 2\), expected \(4, 3\)"):
            ad.cluster_kl(z, z, c, np.zeros((4, 2)), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^cluster_kl: widths differ"):
            ad.cluster_kl(z, z, np.zeros((3, 5)), None, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^cluster_kl: widths differ"):
            ad.cluster_kl(z, np.zeros((4, 3)), c, None, 1.0, 1.0, 1.0)


class TestBackwardSetsGradients:
    """backward against the accumulating loop in tests/oracles.py, with
    array_equal rather than bytes: that loop stored +0.0 where it added -0.0
    into a zeroed buffer."""

    @pytest.mark.parametrize("release", [False, True], ids=["kept", "released"])
    @pytest.mark.parametrize("name,op,composed,shapes,extra", LAYER_OP_CASES,
                             ids=[c[0] for c in LAYER_OP_CASES])
    def test_layer_ops_match_accumulating_backward(self, name, op, composed, shapes, extra,
                                                   release):
        rng = np.random.default_rng(7)
        operands = _operands(rng, shapes)
        params = [t for t in operands if isinstance(t, ad.Tensor) and t.requires_grad]
        out = op(*operands, *extra)
        loss = _weighted_sum(out, rng.standard_normal(out.shape))
        got, want = backward_pair(loss, params, release)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), name

    def test_weight_shared_by_three_ops(self):
        """The first contribution to w is written, the next two are added in
        traversal order, as the pending sum added them."""
        rng = np.random.default_rng(8)
        adj = _sparse(rng, 6)
        x1, x2 = (ad.parameter(rng.standard_normal((6, 4))) for _ in range(2))
        w, b = ad.parameter(rng.standard_normal((4, 5))), ad.parameter(rng.standard_normal((1, 5)))
        out = ad.weighted_sum([(1.0, ad.dense(x1, w, b, activate=True)),
                               (1.0, ad.propagate(adj, x2, w)),
                               (1.0, ad.propagate(adj, x1, w, activate=True))])
        params = [x1, x2, w, b]
        got, want = backward_pair(_weighted_sum(out, rng.standard_normal(out.shape)), params)
        for g, want_g in zip(got, want):
            assert np.array_equal(g, want_g)

    @pytest.mark.parametrize("case", INFO_NCE_CASES)
    def test_info_nce_matches_accumulating_backward(self, monkeypatch, case):
        monkeypatch.setattr(ad, "_LOSS_ROWS", 4)
        c1, c2 = _views(np.random.default_rng(9), 10, 4, case)
        params = [c1] if c1 is c2 else [c1, c2]
        got, want = backward_pair(ad.info_nce(c1, c2, 0.5, 0.5), params)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_decoder_mse_matches_accumulating_backward(self, monkeypatch):
        monkeypatch.setattr(ad, "_LOSS_ROWS", 4)
        rng = np.random.default_rng(10)
        z = ad.parameter(rng.standard_normal((10, 3)))
        (got,), (want,) = backward_pair(ad.decoder_mse(z, _adjacency(rng, 10, (2,))), [z])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("release", [False, True], ids=["kept", "released"])
    def test_cluster_kl_matches_accumulating_backward(self, release):
        """Centroids read by both assignments of the head, as in joint training."""
        rng = np.random.default_rng(11)
        z1, z2 = (ad.parameter(rng.standard_normal((12, 3))) for _ in range(2))
        c = ad.parameter(rng.standard_normal((4, 3)))
        loss = ad.weighted_sum([(1.0, ad.cluster_kl(z1, z2, c, None, 1.0, 0.3, 0.7)),
                                (1.0, ad.cluster_kl(z2, z1, c, None, 2.0, 0.5, 0.2))])
        got, want = backward_pair(loss, [z1, z2, c], release)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_unreached_parameter_gets_zero_gradient(self):
        """A listed parameter the loss does not reach is handed zeros, not
        what the scratch buffer it is written into held from the previous
        call."""
        a, b = ad.parameter([[1.0, 2.0]]), ad.parameter([[3.0]])
        st = oracles.RecordingState.for_params([a, b], lr=0.1)
        ad.backward(oracles.reduce_sum(oracles.hadamard(a, b)), [a, b], st)
        assert np.array_equal(st.grads[1], [[3.0]])
        ad.backward(oracles.reduce_sum(oracles.square(a)), [a, b], st)
        assert np.array_equal(st.grads[0], [[2.0, 4.0]])
        assert st.grads[1].tobytes() == np.zeros((1, 1)).tobytes()

    def test_weight_gradients_allocate_less_than_one_weight(self):
        """Through dense and both propagate associations with 500 x 2000
        weights at n=8, each weight gradient is written into a scratch
        buffer the optimizer state keeps across steps and handed to the
        state from there, so after the first step backward allocates less
        than one weight's bytes, and no parameter holds a gradient array."""
        n = 8
        rng = np.random.default_rng(12)
        adj = _sparse(rng, n)
        x = ad.constant(rng.standard_normal((n, 500)))
        w1, w2, w3 = (ad.parameter(rng.standard_normal(shape) / 50)
                      for shape in ((500, 2000), (2000, 500), (500, 2000)))
        b1 = ad.parameter(np.zeros((1, 2000)))
        params = [w1, b1, w2, w3]
        h = ad.dense(x, w1, b1, activate=True)
        h = ad.propagate(adj, h, w2, activate=True)  # narrows: adj @ (h @ w2)
        loss = oracles.reduce_sum(oracles.square(ad.propagate(adj, h, w3)))  # widens: (adj @ h) @ w3
        st = ad.AdamState.for_params(params, lr=0.01)
        ad.backward(loss, params, st)
        ad.adam_step(params, st)
        tracemalloc.start()
        try:
            ad.backward(loss, params, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w1.value.nbytes
        assert not any(oracles.arrays_beside_value(p) for p in params)
        assert len(st.scratch) == 1


def _adam(params, grads, state):
    """absorb each of grads, then one adam_step."""
    for i, g in enumerate(grads):
        state.absorb(i, g)
    return ad.adam_step(params, state)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = ad.parameter([[1.0, 2.0]])
        st = ad.AdamState.for_params([p], lr=0.1)
        _adam([p], [np.zeros((1, 2))], st)
        assert np.array_equal(p.value, [[1.0, 2.0]])
        assert st.step == 1

    def test_first_step_moves_by_lr(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_params([p], lr=0.1)
        _adam([p], [np.ones((1, 1))], st)
        assert p.value[0, 0] == pytest.approx(-0.1, abs=1e-8)

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(42)
            p = ad.parameter(rng.standard_normal((3, 3)))
            st = ad.AdamState.for_params([p], lr=0.01)
            for i in range(25):
                g = np.sin(p.value + i)
                _adam([p], [g], st)
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
            _adam(blocked, grads, st_blocked)
            adam_step_whole(whole, grads, st_whole)
            for a, b in zip(blocked, whole):
                assert a.value.tobytes() == b.value.tobytes()
            for a, b in zip(st_blocked.m + st_blocked.v, st_whole.m + st_whole.v):
                assert a.tobytes() == b.tobytes()
        assert st_blocked.step == st_whole.step == 4

    @pytest.mark.parametrize("block", [5, 64, 1 << 14])
    def test_backward_into_the_state_matches_the_whole_array_update(self, monkeypatch, block):
        """backward hands each gradient to the state as it finishes it, and
        adam_step applies the update from the moments: over several steps p,
        m and v are the bytes of the whole-array update on the gradients
        backward hands over. w is read twice, by dense and by
        propagate, so its two contributions are summed before it is handed
        over; u is listed but not reached, so it gets zeros, although the
        scratch buffer they are written into held other gradients first."""
        monkeypatch.setattr(ad, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(3)
        adj = _sparse(rng, 6)
        x = ad.constant(rng.standard_normal((6, 7)))
        shapes = [(7, 9), (1, 9), (9, 11), (3, 13)]
        values = [rng.standard_normal(shape) for shape in shapes]

        def loss(w, b, w2, u):
            h = ad.weighted_sum([(0.5, ad.dense(x, w, b, activate=True)),
                                 (1.5, ad.propagate(adj, x, w, activate=True))])
            return oracles.reduce_sum(oracles.square(ad.propagate(adj, h, w2)))

        fused = [ad.parameter(v) for v in values]
        whole = [ad.parameter(v) for v in values]
        st_fused = ad.AdamState.for_params(fused, lr=0.01)
        st_whole = ad.AdamState.for_params(whole, lr=0.01)
        for _ in range(4):
            ad.backward(loss(*fused), fused, st_fused)
            assert st_fused.first_nonfinite() is None
            ad.adam_step(fused, st_fused)
            grads = oracles.grads(loss(*whole), whole)
            adam_step_whole(whole, grads, st_whole)
            assert not grads[-1].any()
            for a, b in zip(fused, whole):
                assert a.value.tobytes() == b.value.tobytes()
            for a, b in zip(st_fused.m + st_fused.v, st_whole.m + st_whole.v):
                assert a.tobytes() == b.tobytes()
        assert np.array_equal(fused[-1].value, values[-1])
        assert not any(oracles.arrays_beside_value(p) for p in fused)
        assert 1 <= len(st_fused.scratch) <= 3
        assert all(buf.size == 9 * 11 for buf in st_fused.scratch)  # the largest parameter's

    def test_nonfinite_gradient_is_noted_in_parameter_order(self):
        params = [ad.parameter(np.ones((2, 3))) for _ in range(3)]
        st = ad.AdamState.for_params(params, lr=0.1)
        bad = np.ones((2, 3))
        bad[1, 2] = np.inf
        for i in (2, 0, 1):
            st.absorb(i, bad if i != 0 else np.ones((2, 3)))
        assert st.first_nonfinite() == 1

    def test_state_holds_the_moments_and_a_bounded_scratch(self):
        """After a backward through an attention layer, which writes its
        three role gradients at once, and a dense layer, the state holds the
        two moments, three scratch buffers, each the size of the largest
        parameter, and its block-sized work buffer: nothing more."""
        n, d = 6, 4
        rng = np.random.default_rng(5)
        z, c = ad.parameter(rng.standard_normal((n, d))), ad.constant(rng.standard_normal((n, 2)))
        adj = _sparse(rng, n)
        w = [ad.parameter(rng.standard_normal((d + 2, 6))) for _ in range(3)]
        w2, b2 = ad.parameter(rng.standard_normal((3, 5))), ad.parameter(np.zeros((1, 5)))
        params = [z, *w, w2, b2]
        st = ad.AdamState.for_params(params, lr=0.1)
        h = ad.attention(z, c, w, adj, rng.standard_normal(adj.nnz), 2, activate=True)
        ad.backward(oracles.reduce_sum(oracles.square(ad.dense(h, w2, b2))), params, st)
        held = {id(a): a for value in vars(st).values()
                for a in (value if isinstance(value, list) else [value])
                if isinstance(a, np.ndarray)}
        assert held.keys() == {id(a) for a in st.m + st.v + st.scratch + [st._work]}
        assert sum(a.nbytes for a in st.m + st.v) == 2 * sum(p.value.nbytes for p in params)
        assert len(st.scratch) == 3
        assert all(buf.size == max(p.value.size for p in params) for buf in st.scratch)
        assert st._work.size == ad._ADAM_BLOCK

    @pytest.mark.parametrize("role", ["value", "gradient"])
    def test_non_contiguous_array_rejected(self, role):
        params = [ad.parameter(np.ones((1, 2))), ad.parameter(np.ones((2, 3)), name="w")]
        st = ad.AdamState.for_params(params, lr=0.1)
        grads = [np.ones((1, 2)), np.ones((2, 3))]
        if role == "value":
            params[1].value = np.asfortranarray(params[1].value)
            message = r"^adam_step: the value of parameter 1 .*w.* is not C-contiguous"
        else:
            grads[1] = np.ones((2, 6))[:, ::2]
            message = r"^absorb: the gradient of parameter 1 is not C-contiguous"
        with pytest.raises(ValueError, match=message):
            _adam(params, grads, st)

    def test_mismatched_state_rejected(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_params([p, ad.parameter([[0.0]])], lr=0.1)
        with pytest.raises(ValueError, match="^adam_step: .*parameter list"):
            ad.adam_step([p], st)
        with pytest.raises(ValueError, match="^backward: .*parameter list"):
            ad.backward(oracles.reduce_sum(oracles.square(p)), [p], st)

    def test_step_needs_every_gradient(self):
        params = [ad.parameter([[1.0]]), ad.parameter([[2.0]], name="b")]
        st = ad.AdamState.for_params(params, lr=0.1)
        st.absorb(0, np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"^adam_step: no gradient absorbed for parameter 1 .*b"):
            ad.adam_step(params, st)
        with pytest.raises(ValueError, match=r"^backward: the loss reaches .*b.*, which params"):
            ad.backward(oracles.reduce_sum(oracles.square(params[1])), params[:1],
                        ad.AdamState.for_params(params[:1], lr=0.1))


def test_finite_difference_check_on_square():
    x = ad.parameter([[3.0]])
    err = finite_difference_check(
        lambda _: oracles.reduce_sum(oracles.square(x)), [x]
    )
    assert err <= 1e-6
