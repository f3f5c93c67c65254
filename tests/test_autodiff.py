"""Tape recording, reverse gradients, Jacobians, FD Hessians."""

import math
import random

import pytest

from desknum import autodiff as ad
from desknum.errors import DomainError, NonFinite


def fd_gradient(fnum, xs, h=1e-6):
    out = []
    for j in range(len(xs)):
        xp = list(xs)
        xm = list(xs)
        xp[j] += h
        xm[j] -= h
        out.append((fnum(xp) - fnum(xm)) / (2 * h))
    return out


# recording


def test_record_values():
    v, tape = ad.record(lambda x: x**2 + 3 * x + 5, [2.0])
    assert v == 15.0
    assert tape.output_index == len(tape.parents) - 1 == len(tape.partials) - 1
    v, _ = ad.record(lambda x: x, [7.0])
    assert v == 7.0
    v, _ = ad.record(lambda x: ad.exp(x), [0.0])
    assert v == 1.0


def test_tape_topological_and_finite():
    v, tape = ad.record(
        lambda x, y: ad.sin(x) * ad.exp(y) / (x**2 + 1.5), [0.3, -0.2]
    )
    assert math.isfinite(v)
    # the inputs come first, with no parents
    assert tape.input_indices == range(2) and tape.parents[:2] == [(), ()]
    assert len(tape.parents) == len(tape.partials)
    for i, (parents, partials) in enumerate(zip(tape.parents, tape.partials)):
        assert all(p < i for p in parents) and len(partials) == len(parents)
        assert all(map(math.isfinite, partials))


def test_record_with_zero_inputs():
    v, tape = ad.record(lambda: 3.0, [])
    assert v == 3.0 and ad.gradient(tape).partials == []


def test_record_domain_errors():
    with pytest.raises(DomainError):
        ad.record(lambda x: ad.log(x), [-1.0])
    with pytest.raises(DomainError):
        ad.record(lambda x, y: x / y, [1.0, 0.0])
    with pytest.raises(DomainError):
        ad.record(lambda x: x**-1, [0.0])
    with pytest.raises(DomainError):
        ad.record(lambda x: x**0.5, [-2.0])
    with pytest.raises(NonFinite):
        ad.record(lambda x: ad.exp(x), [1e4])
    with pytest.raises(NonFinite):
        ad.record(lambda x: x + 1, [float("inf")])


# gradients


def test_gradient_goldens():
    _, tape = ad.record(lambda x: x**2 + 3 * x + 5, [2.0])
    assert ad.gradient(tape).partials == [7.0]

    _, tape = ad.record(lambda x, y: 3 * x**2 + 4 * y**3, [1.0, 2.0])
    assert ad.gradient(tape).partials == [6.0, 48.0]

    _, tape = ad.record(lambda x: x, [3.25])
    assert ad.gradient(tape).partials == [1.0]


def test_gradient_unused_input_is_zero():
    _, tape = ad.record(lambda x, y: x * 2 + 1, [1.0, 5.0])
    assert ad.gradient(tape).partials == [2.0, 0.0]


def test_sigmoid_partial_is_s_times_one_minus_s():
    rng = random.Random(0)
    for _ in range(50):
        x = rng.uniform(-30, 30)
        s, tape = ad.record(lambda t: ad.sigmoid(t), [x])
        assert tape.parents[tape.output_index] == (0,)
        (d,) = tape.partials[tape.output_index]
        assert abs(d - s * (1 - s)) <= 1e-12
        assert 0.0 < s < 1.0


def test_gradient_linearity():
    rng = random.Random(1)

    def f(x, y):
        return ad.sin(x) * y + x**3

    def g(x, y):
        return ad.exp(y) / (x**2 + 1.5) - ad.cos(x)

    for _ in range(20):
        pt = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        gf = ad.gradient(ad.record(f, pt)[1]).partials
        gg = ad.gradient(ad.record(g, pt)[1]).partials
        combo = ad.gradient(ad.record(lambda x, y: a * f(x, y) + b * g(x, y), pt)[1]).partials
        for i in range(2):
            assert abs(combo[i] - (a * gf[i] + b * gg[i])) <= 1e-10


def random_expression(rng):
    """Build a composite over the supported op set, safe on all real inputs."""

    ops = []
    for _ in range(rng.randint(3, 8)):
        ops.append(rng.randint(0, 8))

    def build(x, y):
        e = x * 1.0
        for k, op in enumerate(ops):
            if op == 0:
                e = e + y
            elif op == 1:
                e = e - 0.5 * y
            elif op == 2:
                e = e * ad.sigmoid(y)
            elif op == 3:
                e = e / (y**2 + 1.5)
            elif op == 4:
                e = ad.sin(e)
            elif op == 5:
                e = ad.cos(e) + 0.1 * y
            elif op == 6:
                e = ad.tanh(e)
            elif op == 7:
                e = ad.exp(ad.tanh(e))
            else:
                e = ad.log(e * e + 1.5)
        return e

    return build


def test_gradient_matches_central_fd_on_random_expressions():
    rng = random.Random(7)
    for _ in range(60):
        build = random_expression(rng)
        pt = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        grad = ad.gradient(ad.record(build, pt)[1]).partials

        def fnum(xs, build=build):
            return ad.record(build, xs)[0]

        fd = fd_gradient(fnum, pt)
        for g, d in zip(grad, fd):
            assert abs(g - d) <= max(1e-5, 1e-4 * abs(g))


# jacobian


def test_jacobian_golden():
    j = ad.jacobian(lambda x1, x2: [x1**2, x2**3], [1.0, 2.0])
    assert j.to_rows() == [[2.0, 0.0], [0.0, 12.0]]


def test_jacobian_identity_and_constant():
    j = ad.jacobian(lambda x, y, z: [x, y, z], [4.0, -1.0, 0.5])
    assert j.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    j = ad.jacobian(lambda x, y: [x * 0 + 3, x * 0 - 1], [2.0, 5.0])
    assert j.to_rows() == [[0, 0], [0, 0]]


def test_jacobian_against_fd():
    rng = random.Random(3)
    for _ in range(20):
        pt = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]

        def fam(x, y):
            return [ad.sin(x) * y, ad.exp(x) + ad.tanh(y), x / (y**2 + 2.0)]

        j = ad.jacobian(fam, pt).to_rows()
        for i in range(3):

            def comp(xs, i=i):
                return ad.record(lambda x, y: fam(x, y)[i], xs)[0]

            fd = fd_gradient(comp, pt)
            assert max(abs(a - b) for a, b in zip(j[i], fd)) <= 1e-5


# hessian


def test_hessian_goldens():
    h = ad.hessian_fd(lambda x: x**4, [1.0])
    assert abs(h.get(0, 0) - 12.0) <= 1e-4

    for pt in (-3.0, 0.0, 2.5):
        h = ad.hessian_fd(lambda x: x**2 + 4 * x + 4, [pt])
        assert abs(h.get(0, 0) - 2.0) <= 1e-6

    h = ad.hessian_fd(lambda x, y: 3 * x - 2 * y + 1, [0.7, -0.2])
    assert max(abs(v) for v in h.data) <= 1e-6


def test_hessian_quadratic_form():
    rng = random.Random(11)
    for _ in range(10):
        b = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)]
        q = [[(b[i][j] + b[j][i]) / 2 for j in range(3)] for i in range(3)]

        def f(x, y, z, q=q):
            v = [x, y, z]
            acc = None
            for i in range(3):
                for j in range(3):
                    term = v[i] * v[j] * q[i][j]
                    acc = term if acc is None else acc + term
            return acc

        h = ad.hessian_fd(f, [rng.uniform(-1, 1) for _ in range(3)]).to_rows()
        assert max(abs(h[i][j] - 2 * q[i][j]) for i in range(3) for j in range(3)) <= 1e-4
        assert max(abs(h[i][j] - h[j][i]) for i in range(3) for j in range(3)) == 0.0


def test_hessian_rejects_bad_step():
    with pytest.raises(ValueError):
        ad.hessian_fd(lambda x: x**2, [1.0], h=0.0)
