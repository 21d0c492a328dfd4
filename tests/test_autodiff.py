import numpy as np
import pytest

from bitdiff import autodiff as ad
from bitdiff.autodiff import Tensor, minimum, spmm, tsum

from oracles import (
    backward_direct,
    finite_diff_grads,
    grads_to_vec,
    rel_err,
    sigmoid_direct,
    sigmoid_vjp_direct,
    tanh_vjp_direct,
    truediv_vjp_direct,
)

SPECIAL_Z = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 750.0, -750.0]


def scalar_fd(f, x, h=1e-6):
    """Finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


class TestBasicOps:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        loss = tsum(x * x)
        loss.backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_shared_subexpression(self):
        x = Tensor(np.array(2.0))
        y = (x * x) + x
        y.backward()
        assert float(x.grad) == pytest.approx(5.0)

    def test_broadcast_add_bias(self):
        w = Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros(4))
        out = tsum(w + b)
        out.backward()
        assert np.allclose(b.grad, 3.0)

    def test_matmul_grads(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 2))

        def f(wv):
            return float(((a @ wv) ** 2).sum())

        wt = Tensor(w)
        loss = tsum((a @ wt) * (a @ wt))
        loss.backward()
        assert rel_err(wt.grad, scalar_fd(f, w)) < 1e-7

    def test_minimum_branches(self):
        a = Tensor(np.array([1.0, 5.0]))
        b = Tensor(np.array([2.0, 3.0]))
        out = tsum(minimum(a, b))
        out.backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_clip_gradient_mask(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]))
        out = tsum(ad.clip(x, 0.0, 1.0) * np.array([1.0, 1.0, 1.0]))
        out.backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = tsum(tsum(x, axis=1, keepdims=True) * np.array([[2.0], [3.0]]))
        out.backward()
        assert np.allclose(x.grad, [[2, 2, 2], [3, 3, 3]])

    def test_mean_axis(self):
        x = Tensor(np.ones((4, 2)))
        out = tsum(ad.tmean(x, axis=0))
        out.backward()
        assert np.allclose(x.grad, 0.25)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            tsum(Tensor(np.ones(3)), axis=0, keepdims=True).backward()


# name: (Tensor shape, constant shape, op, gradient of sum(op(x, c) * g) in x)
CONSTANT_OPERANDS = {
    "x+c": ((3, 2), (3, 2), lambda x, c: x + c, lambda g, x, c: g),
    "wide_c+x": ((2,), (3, 2), lambda x, c: c + x, lambda g, x, c: g.sum(axis=0)),
    "x*c": ((3, 2), (2,), lambda x, c: x * c, lambda g, x, c: g * c),
    "c*x": ((3, 2), (3, 2), lambda x, c: c * x, lambda g, x, c: g * c),
    "x/c": ((3, 2), (3, 2), lambda x, c: x / c, lambda g, x, c: g / c),
    "x/wide_c": ((2,), (3, 2), lambda x, c: x / c, lambda g, x, c: (g / c).sum(axis=0)),
    "c@x": ((4, 2), (3, 4), lambda x, c: c @ x, lambda g, x, c: c.T @ g),
    "x@c": ((3, 4), (4, 2), lambda x, c: x @ c, lambda g, x, c: g @ c.T),
    "minimum(x,c)": ((3, 2), (3, 2), minimum, lambda g, x, c: g * (x <= c)),
    "minimum(c,x)": ((3, 2), (3, 2), lambda x, c: minimum(c, x), lambda g, x, c: g * ~(c <= x)),
}


class TestConstantOperands:
    """A binary op with one constant operand records one node whose only
    parent is the Tensor, and gives it the direct gradient in its shape."""

    @pytest.mark.parametrize("case", list(CONSTANT_OPERANDS))
    def test_one_node_and_direct_gradient(self, case):
        x_shape, c_shape, op, direct = CONSTANT_OPERANDS[case]
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 2.0, x_shape)
        c = rng.uniform(0.5, 2.0, c_shape)
        c.flat[0] = x.flat[0]  # a tie for minimum
        t = Tensor(x)
        ad.reset_activation_records()
        y = op(t, c)
        assert ad.activation_records() == 1
        assert y._parents == (t,)
        g = rng.standard_normal(y.shape)
        tsum(y * g).backward()  # d(sum(y*g))/dy is g exactly
        assert t.grad.shape == x.shape
        assert np.array_equal(t.grad, direct(g, x, c))


class TestPointwise:
    @pytest.mark.parametrize("name", ["exp", "log", "tanh", "sigmoid", "sqrt"])
    def test_against_fd(self, name):
        rng = np.random.default_rng(1)
        x = np.abs(rng.standard_normal(5)) + 0.5

        def f(xv):
            t = Tensor(xv)
            return float(ad.as_array(tsum(getattr(ad, name)(t) * np.arange(1.0, 6.0))))

        t = Tensor(x)
        loss = tsum(getattr(ad, name)(t) * np.arange(1.0, 6.0))
        loss.backward()
        assert rel_err(t.grad, scalar_fd(f, x)) < 1e-6

    def test_sigmoid_extreme_inputs_finite(self):
        t = Tensor(np.array([-800.0, 800.0]))
        out = ad.sigmoid(t)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-300)
        assert out.data[1] == pytest.approx(1.0)


class TestSparse:
    def test_spmm_gradient(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(2)
        a = sp.random(6, 6, density=0.4, random_state=3, format="csr")
        x = rng.standard_normal((6, 3))
        coef = rng.standard_normal((6, 3))

        def f(xv):
            return float(((a @ xv) * coef).sum())

        xt = Tensor(x)
        loss = tsum(spmm(a, xt) * coef)
        loss.backward()
        assert rel_err(xt.grad, scalar_fd(f, x)) < 1e-7

    @pytest.mark.parametrize("k", [1, 5])
    def test_node_mix_gradient(self, k):
        rng = np.random.default_rng(5)
        op = rng.standard_normal((k, 5))
        x = rng.standard_normal((3 * 5, 4))
        coef = rng.standard_normal((3 * k, 4))

        def f(xv):
            blocks = [op @ xv[5 * c:5 * (c + 1)] for c in range(3)]
            return float((np.concatenate(blocks) * coef).sum())

        xt = Tensor(x)
        out = ad.node_mix(op, xt, 3)
        assert np.array_equal(out.data, ad.node_mix(op, x, 3))
        tsum(out * coef).backward()
        assert rel_err(xt.grad, scalar_fd(f, x)) < 1e-7


class TestComposite:
    def test_mlp_style_chain_matches_fd(self):
        rng = np.random.default_rng(4)
        params = {
            "w1": rng.standard_normal((4, 6)) / 2,
            "b1": rng.standard_normal(6) / 10,
            "w2": rng.standard_normal((6, 1)) / 2,
        }
        x = rng.standard_normal((8, 4))

        def loss_value():
            h = np.tanh(x @ params["w1"] + params["b1"])
            out = 1 / (1 + np.exp(-(h @ params["w2"])))
            return float(np.sum(np.log(out)))

        leaves = ad.leaves(params)
        h = ad.tanh(ad.matmul(x, leaves["w1"]) + leaves["b1"])
        out = ad.sigmoid(ad.matmul(h, leaves["w2"]))
        loss = tsum(ad.log(out))
        loss.backward()
        got = ad.collect_grads(leaves)
        want = finite_diff_grads(loss_value, params)
        assert rel_err(grads_to_vec(got), grads_to_vec(want)) < 1e-7


class TestActivationRecords:
    def test_counter_tracks_nonleaf_tensors(self):
        ad.reset_activation_records()
        x = Tensor(np.ones(3))
        assert ad.activation_records() == 0  # leaves are free
        _ = x + 1.0
        _ = x * x
        assert ad.activation_records() == 2

    def test_counter_scales_with_chain_length(self):
        x = Tensor(np.ones(2))
        ad.reset_activation_records()
        y = x
        for _ in range(10):
            y = y * 2.0
        ten = ad.activation_records()
        ad.reset_activation_records()
        y = x
        for _ in range(50):
            y = y * 2.0
        fifty = ad.activation_records()
        assert fifty == 5 * ten

    def test_bytes_count_outputs_and_held_masks(self):
        x = Tensor(np.ones((3, 4)))
        ad.reset_activation_records()
        _ = x * 2.0  # one (3, 4) float64 output
        assert ad.activation_bytes() == 96
        _ = ad.clip(x, 0.0, 2.0)  # output plus a (3, 4) bool mask
        _ = minimum(x, 0.5)
        assert ad.activation_bytes() == 96 + 2 * (96 + 12)
        _ = ad.tsum(x, axis=1)
        assert ad.activation_bytes() == 96 + 2 * (96 + 12) + 24
        ad.reset_activation_records()
        assert ad.activation_records() == ad.activation_bytes() == 0


def special_and_random(n, seed):
    """The special inputs followed by random values of mixed scale, n in all."""
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal(n) * rng.choice([0.1, 3.0, 30.0], n)
    return np.concatenate([SPECIAL_Z, rand])[:n]


def tape_grads(root) -> list:
    """The gradient of every node of a tape, in traversal order."""
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node.grad)
        stack.extend(node._parents)
    return out


class TestExactRewrites:
    """The lean numerics give the same bits as the formulas they replaced
    (tests/oracles.py), at lengths that end vectorized loops at several
    offsets."""

    @pytest.mark.parametrize("n", [1, 3, 8, 13, 64, 1001])
    def test_sigmoid_matches_direct(self, n):
        z = special_and_random(n, n)
        want = sigmoid_direct(z)
        assert np.array_equal(ad.sigmoid(z), want)
        assert np.array_equal(ad.sigmoid(Tensor(z)).data, want)
        assert np.array_equal(ad.sigmoid(z.reshape(n, 1)), want.reshape(n, 1))

    @pytest.mark.parametrize("z", SPECIAL_Z)
    def test_sigmoid_scalar_matches_direct(self, z):
        want = sigmoid_direct(z)
        for got in (ad.sigmoid(z), ad.sigmoid(Tensor(np.asarray(z))).data):
            assert np.array_equal(got, want)
            assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("n", [1, 7, 16, 37, 1001])
    def test_pointwise_vjps_match_direct(self, n):
        rng = np.random.default_rng(n)
        x = special_and_random(n, n + 1)
        g = rng.standard_normal(n)
        for name, direct, fwd in (("tanh", tanh_vjp_direct, np.tanh),
                                  ("sigmoid", sigmoid_vjp_direct, sigmoid_direct)):
            t = Tensor(x)
            tsum(getattr(ad, name)(t) * g).backward()  # d(sum(y*g))/dy is g exactly
            assert np.array_equal(t.grad, direct(g, fwd(x))), name

    @pytest.mark.parametrize("shape_b", [(9, 5), (9, 1), ()])
    def test_truediv_vjp_matches_direct(self, shape_b):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 5))
        b = rng.uniform(0.5, 2.0, shape_b) * np.where(rng.random(shape_b) < 0.5, -1.0, 1.0)
        g = rng.standard_normal((9, 5))
        ta, tb = Tensor(a), Tensor(b)
        tsum((ta / tb) * g).backward()
        grad_a, grad_b = truediv_vjp_direct(g, a, b)
        assert np.array_equal(ta.grad, grad_a)
        axes = tuple(i for i, s in enumerate(np.shape(b)) if s == 1)
        want_b = grad_b.sum() if b.ndim == 0 else grad_b.sum(axis=axes, keepdims=True)
        assert np.array_equal(tb.grad, want_b)

    @pytest.mark.parametrize("tape", ["x+x", "a*a", "residual", "bias", "reshape", "add_shared"])
    def test_backward_accumulation_matches_direct(self, tape):
        def build():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((6, 4)))
            w = Tensor(rng.standard_normal((4, 4)) / 2)
            b = Tensor(rng.standard_normal(4))
            g = rng.standard_normal((6, 4))
            if tape == "x+x":
                loss = tsum((x + x) * g)
            elif tape == "a*a":
                loss = tsum((x * x) * x * g)
            elif tape == "residual":
                h = ad.tanh(ad.matmul(x, w) + b)
                for _ in range(2):
                    h = h + ad.tanh(ad.matmul(h, w) + b)
                loss = tsum(h * g)
            elif tape == "bias":
                loss = tsum(ad.tanh(ad.matmul(x, w) + b) * g) + tsum(b * b)
            elif tape == "reshape":
                v = (x * tsum(w, axis=0)).reshape((24,))
                loss = tsum(v * g.reshape(24)) + tsum(x * x * g)
            else:
                # the add VJP hands the same array to both operands; x then
                # gathers more, which must not reach the sum's other operand
                y = x * g
                loss = tsum((x + y) * g) + tsum(x * x)
            return loss

        new_root, old_root = build(), build()
        new_root.backward()
        backward_direct(old_root)
        for got, want in zip(tape_grads(new_root), tape_grads(old_root), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["all", "axis0", "axis1", "last_keepdims", "both",
                                      "standardize"])
    def test_tsum_vjp_view_matches_copy(self, case):
        # the VJP returns a read-only broadcast view of g; a copy of it, as
        # first written, gives the same gradients on every node
        def build(sum_fn):
            rng = np.random.default_rng(5)
            x = Tensor(rng.standard_normal((4, 4)))
            w = Tensor(rng.standard_normal((4, 3)))
            g = rng.standard_normal((4, 3))
            if case == "standardize":
                c = x - sum_fn(x, axis=1, keepdims=True) * 0.25
                v = sum_fn(c * c, axis=1, keepdims=True) * 0.25
                h = c / ad.sqrt(v + 1e-5)
            else:
                axis, keepdims = {"all": (None, False), "axis0": (0, False),
                                  "axis1": (1, False), "last_keepdims": (-1, True),
                                  "both": ((0, 1), True)}[case]
                h = x * sum_fn(ad.tanh(x), axis=axis, keepdims=keepdims)
            return sum_fn(ad.matmul(h, w) * g)

        def tsum_copying(x, axis=None, keepdims=False):
            out = tsum(x, axis=axis, keepdims=keepdims)
            view_vjp = out._vjp
            out._vjp = lambda g: [np.array(a) for a in view_vjp(g)]
            return out

        new_root, old_root = build(tsum), build(tsum_copying)
        new_root.backward()
        old_root.backward()
        for got, want in zip(tape_grads(new_root), tape_grads(old_root), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("squash", [False, True])
    def test_affine_matches_expression(self, squash):
        rng = np.random.default_rng(11)
        x, w, b = rng.standard_normal((37, 5)), rng.standard_normal((5, 9)), rng.standard_normal(9)
        want = x @ w + b
        if squash:
            want = np.tanh(want)
        assert np.array_equal(ad.affine(x, w, b, squash), want)
        ad.reset_activation_records()
        traced = ad.affine(x, Tensor(w), Tensor(b), squash)
        assert np.array_equal(traced.data, want)
        assert ad.activation_records() == (3 if squash else 2)
