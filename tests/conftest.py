import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "polyk",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("polyk")


@pytest.fixture(scope="session")
def small_corpus():
    """A quick corpus for unit tests."""
    from polyk.corpus import cross_polytope, hypercube, simplex

    return [
        simplex(0, name="point"),
        simplex(1),
        simplex(2, name="triangle"),
        simplex(3),
        hypercube(2, name="square"),
        hypercube(3, name="cube"),
        cross_polytope(3, name="octahedron"),
    ]


@pytest.fixture(scope="session")
def pipelines(small_corpus):
    from polyk.pipeline import run_pipeline

    return {p.name: run_pipeline(p) for p in small_corpus}
