from collections import Counter

import pytest
from hypothesis import settings

from hololab import catalog, expr, transport

# property tests replay the same examples on every run and are not timed:
# a slow shared host must not turn a passing example into a failure
settings.register_profile("hololab", derandomize=True, deadline=None)
settings.load_profile("hololab")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Points of every christoffel_many call that transport makes, for
    transport, verify and experiments alike."""
    calls = []
    kernel = transport.christoffel_many

    def counting(M, kind, pts, velocity=None):
        calls.append(len(pts))
        return kernel(M, kind, pts, velocity)

    monkeypatch.setattr(transport, "christoffel_many", counting)
    return calls


@pytest.fixture
def lockstep_batches(monkeypatch):
    """One list per lockstep batch, wherever it is made: the live segments
    that its accept rule is given at each level of each round (empty on a
    pinned grid)."""
    batches = []
    lockstep = transport._lockstep

    def counting(segments, coeffs, start, accept=None, **options):
        rounds = []
        batches.append(rounds)

        def counted(live, *rest):
            rounds.append(len(live))
            return accept(live, *rest)
        return lockstep(segments, coeffs, start, accept and counted, **options)

    monkeypatch.setattr(transport, "_lockstep", counting)
    return batches


@pytest.fixture
def rk4_passes(monkeypatch):
    """Calls of the RK4 kernels by name (per-step matrices, ordered and
    uniform products), wherever transport makes them."""
    passes = Counter()
    for name in ("_rk4_steps", "_ordered_product", "_uniform_product"):
        def counting(*args, name=name, kernel=getattr(transport, name)):
            passes[name] += 1
            return kernel(*args)
        monkeypatch.setattr(transport, name, counting)
    return passes


class _CoarseBatches(list):
    forced = False

    def force(self):
        self.forced = True


@pytest.fixture
def coarse_batches(monkeypatch):
    """One bool per lockstep batch, wherever it is made: whether it formed
    its segments' coarse products.  After ``coarse_batches.force()`` every
    batch forms them, for a run to compare with one that skips them."""
    batches = _CoarseBatches()
    lockstep = transport._lockstep

    def recording(*args, **options):
        if batches.forced:
            options["estimate"] = True
        results = lockstep(*args, **options)
        batches.append(all(r[1] is not None for r in results))
        return results

    monkeypatch.setattr(transport, "_lockstep", recording)
    return batches


@pytest.fixture
def jet_passes(monkeypatch):
    """The expression or program of every expr.eval_dual call: one entry
    per jet pass, wherever it is made."""
    passes = []
    eval_dual = expr.eval_dual

    def counting(e, env, wrt):
        passes.append(e)
        return eval_dual(e, env, wrt)

    monkeypatch.setattr(expr, "eval_dual", counting)
    return passes


@pytest.fixture(scope="session")
def sphere2():
    return catalog.sphere_with_density(2)


@pytest.fixture(scope="session")
def sphere3():
    return catalog.sphere_with_density(3)


@pytest.fixture(scope="session")
def borel():
    return catalog.borel_2d()


@pytest.fixture(scope="session")
def tri2():
    return catalog.triangular_family(2)


@pytest.fixture(scope="session")
def tri3():
    return catalog.triangular_family(3)


@pytest.fixture(scope="session")
def so11():
    return catalog.so_plus_11_2d()


@pytest.fixture(scope="session")
def sopq12():
    return catalog.so_pq_example(1, 2)
