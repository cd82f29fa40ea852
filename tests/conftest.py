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
