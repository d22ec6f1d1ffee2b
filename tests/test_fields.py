import numpy as np
import pytest

from nonlocal_bbm.fields import (
    bump,
    dilate,
    make_field,
    modulated_bump,
    poly_bump,
    product,
    standard_catalog,
    translate,
    w11_norms,
    zero_field,
)
from nonlocal_bbm.quadrature import default_spec, _panel_nodes


def _sample_points(n, radius, count, seed=11):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(count, n))
    return pts


def _fd_gradient(f, X, h=1e-5):
    n = X.shape[1]
    g = np.zeros_like(X)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        g[:, j] = (f.eval(X + e) - f.eval(X - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("field", [
    bump(1), bump(2), bump(3),
    poly_bump(2, k=3), poly_bump(3, k=4),
    modulated_bump(2, [2.0, 0.0]),
    translate(bump(2), [0.3, -0.1]),
    dilate(bump(2), 2.0),
    product(bump(2), modulated_bump(2, [1.0, 1.0])),
])
def test_gradient_matches_finite_differences(field):
    X = _sample_points(field.dim, 0.9 * field.support_radius, 100)
    g = field.grad(X)
    fd = _fd_gradient(field, X)
    scale = max(field.grad_sup_norm, 1.0)
    assert np.max(np.abs(g - fd)) < 1e-6 * scale


@pytest.mark.parametrize("field", [bump(2), poly_bump(2, k=3), modulated_bump(2, [2.0, 0.0])])
def test_vanishes_outside_support(field):
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((50, field.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = field.support_radius * (1.0 + rng.uniform(0.0, 3.0, size=50))
    pts = dirs * radii[:, None]
    assert np.all(field.eval(pts) == 0.0)
    assert np.all(field.grad(pts) == 0.0)


@pytest.mark.parametrize("field", [
    bump(1), bump(2), poly_bump(2, k=3), modulated_bump(2, [2.0, 0.0]), bump(3),
])
def test_certified_norms_dominate_samples(field):
    X = _sample_points(field.dim, field.support_radius, 2000, seed=5)
    assert np.max(np.abs(field.eval(X))) <= field.sup_norm + 1e-12
    assert np.max(np.linalg.norm(field.grad(X), axis=1)) <= field.grad_sup_norm + 1e-12


def test_bump_center_value_and_radial_flag():
    f = bump(2)
    assert float(f.eval(np.zeros((1, 2)))[0]) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert f.radial
    assert not modulated_bump(2, [2.0, 0.0]).radial
    assert not translate(bump(2), [0.5, 0.0]).radial


def test_poly_bump_requires_enough_smoothness():
    with pytest.raises(ValueError):
        poly_bump(2, k=2)
    with pytest.raises(ValueError):
        poly_bump(2, k=3.5)


def test_translate_shifts_support_and_values():
    f = bump(2)
    g = translate(f, [1.0, 0.0])
    x = np.array([[1.2, 0.1]])
    assert float(g.eval(x)[0]) == pytest.approx(
        float(f.eval(x - np.array([1.0, 0.0]))[0]), rel=1e-14
    )
    assert g.support_radius >= f.support_radius + 1.0 - 1e-12


def test_dilate_scales_values_and_support():
    f = bump(2)
    g = dilate(f, 2.0)  # g(x) = f(2x)
    x = np.array([[0.2, 0.1]])
    assert float(g.eval(x)[0]) == pytest.approx(float(f.eval(2.0 * x)[0]), rel=1e-14)
    assert g.support_radius == pytest.approx(f.support_radius / 2.0)
    assert g.grad_sup_norm == pytest.approx(2.0 * f.grad_sup_norm, rel=1e-12)


def test_zero_field_norms():
    z = zero_field(2)
    X = _sample_points(2, 1.0, 10)
    assert np.all(z.eval(X) == 0.0)
    assert z.sup_norm == 0.0 and z.grad_sup_norm == 0.0


def test_w11_norms_against_tensor_grid():
    f = bump(2)
    spec = default_spec(2)
    l1, gl1 = w11_norms(f, spec)
    # independent oracle: plain midpoint tensor grid over the support box
    m = 2048
    R = f.support_radius
    h = 2.0 * R / m
    ax = -R + h * (np.arange(m) + 0.5)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.abs(f.eval(pts))
    grads = np.linalg.norm(f.grad(pts), axis=1)
    assert l1 == pytest.approx(float(vals.sum() * h * h), rel=1e-5)
    assert gl1 == pytest.approx(float(grads.sum() * h * h), rel=1e-5)


def test_w11_dilation_covariance():
    # f(lam x): ||f||_1 scales by lam^{-n}, ||grad f||_1 by lam^{1-n}
    f = bump(2)
    spec = default_spec(2)
    l1, gl1 = w11_norms(f, spec)
    l1d, gl1d = w11_norms(dilate(f, 2.0), spec)
    assert l1d == pytest.approx(l1 / 4.0, rel=1e-8)
    assert gl1d == pytest.approx(gl1 / 2.0, rel=1e-8)


def test_make_field_catalog_addressing():
    f = make_field("bump", 2, {})
    assert f.dim == 2
    g = make_field("poly_bump", 3, {"k": 4})
    assert g.dim == 3
    h = make_field("modulated_bump", 2, {"wavevector": [2.0, 0.0]})
    assert not h.radial
    with pytest.raises(ValueError):
        make_field("gaussian", 2, {})


def test_standard_catalog_contents():
    for n in (1, 2, 3):
        cat = standard_catalog(n)
        assert len(cat) >= 2
        for f in cat:
            assert f.dim == n
            assert f.sup_norm > 0.0
    # n = 3 catalog stays radial so the seminorm engine can use the
    # one-dimensional outer reduction
    assert all(f.radial for f in standard_catalog(3))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        product(bump(2), bump(3))


# ---------------------------------------------------------------------------
# memory layout: the engine passes column-major node arrays
# ---------------------------------------------------------------------------


def _ref_sq(d):
    t = np.square(d[..., 0])
    for j in range(1, d.shape[-1]):
        t = t + np.square(d[..., j])
    return t


def _ref_bump(c, scale=1.0):
    """The bump through a broadcast x - c over the last axis."""
    s2 = float(scale) ** 2

    def ev(x):
        t = _ref_sq(x - c) / s2
        return np.exp(-1.0 / np.fmax(1.0 - t, 1e-14))

    def gr(x):
        d = x - c
        t = _ref_sq(d) / s2
        out = np.zeros_like(d)
        inside = t < 1.0 - 1e-14
        w = 1.0 - t[inside]
        out[inside] = (-np.exp(-1.0 / w) / w**2 * (2.0 / s2))[:, None] * d[inside]
        return out

    return ev, gr


def _ref_poly_bump(c, k, scale=1.0):
    s2 = float(scale) ** 2

    def ev(x):
        t = _ref_sq(x - c) / s2
        return np.where(t < 1.0, np.clip(1.0 - t, 0.0, None) ** k, 0.0)

    def gr(x):
        d = x - c
        t = _ref_sq(d) / s2
        coef = np.where(t < 1.0, -k * np.clip(1.0 - t, 0.0, None) ** (k - 1), 0.0)
        return coef[..., None] * d * (2.0 / s2)

    return ev, gr


def _ref_modulated(k, base):
    """sin(x @ k) times the base; the catalog's wavevector (2, 0, ..) makes
    x @ k exact, whatever order a product sums in."""
    bev, bgr = base

    def ev(x):
        b, s = bev(x), x @ k
        return np.where(b != 0.0, np.sin(s), s) * b

    def gr(x):
        s = x @ k
        return (np.cos(s) * bev(x))[..., None] * k + np.sin(s)[..., None] * bgr(x)

    return ev, gr


def _layout_cases(n):
    z = np.zeros(n)
    c = np.linspace(0.1, -0.2, n)
    k = np.array([2.0] + [0.0] * (n - 1))
    b = _ref_bump(z)
    pev, pgr = _ref_poly_bump(z, 3)
    mev, mgr = _ref_modulated(k, b)
    v = np.full(n, 0.25)
    return [
        (make_field("bump", n), b),
        (make_field("bump", n, {"center": c.tolist(), "scale": 0.7}), _ref_bump(c, 0.7)),
        (make_field("poly_bump", n), (pev, pgr)),
        (make_field("poly_bump", n, {"k": 4, "center": c.tolist()}), _ref_poly_bump(c, 4)),
        (make_field("modulated_bump", n), (mev, mgr)),
        (make_field("zero", n), (lambda x: np.zeros(x.shape[:-1]), lambda x: np.zeros(x.shape))),
        (translate(bump(n), v), (lambda x: b[0](x - v), lambda x: b[1](x - v))),
        (dilate(poly_bump(n), 1.5), (lambda x: pev(1.5 * x), lambda x: 1.5 * pgr(1.5 * x))),
        (product(bump(n), modulated_bump(n, k)),
         (lambda x: b[0](x) * mev(x),
          lambda x: b[1](x) * mev(x)[..., None] + mgr(x) * b[0](x)[..., None])),
    ]


def _bits(a):
    a = np.asarray(a)
    return a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("field, ref", [c for n in (1, 2, 3) for c in _layout_cases(n)],
                         ids=lambda v: f"{v.name}-{v.dim}d" if hasattr(v, "name") else "")
def test_eval_and_grad_do_not_depend_on_memory_layout(field, ref):
    n = field.dim
    rng = np.random.default_rng(23)
    # inside, on the edge of and beyond the support, in blocks of one radius
    X = rng.standard_normal((300, n))
    X *= (rng.uniform(0.0, 1.3, 300) * field.support_radius / np.linalg.norm(X, axis=1))[:, None]
    X[0] = 0.0
    wide = np.zeros((X.shape[0], 2 * n))
    wide[:, ::2] = X
    layouts = [X, np.asfortranarray(X), wide[:, ::2]]
    for h, want in ((field.eval, ref[0](X)), (field.grad, ref[1](X))):
        for Y in layouts:
            assert _bits(h(Y)) == _bits(want)
        # a single point of shape (n,)
        for i in (0, 7, 150):
            assert _bits(h(X[i])) == _bits(want[i])
