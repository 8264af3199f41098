import numpy as np
import pytest

from willmorelab import gauss_frame, surface, zoo

# surface pipelines are expensive; build each (kind, N) once per session
_CACHE = {}


def pipeline(kind, N=48, param=None):
    key = (kind, N, param)
    if key not in _CACHE:
        spec = zoo.SurfaceSpec(kind, param)
        c = zoo.default_chart(spec, N)
        S = surface.build_surface_data(zoo.generate(spec, c), c)
        F, _ = gauss_frame.build_frame(S)
        M = gauss_frame.maurer_cartan(F, c)
        _CACHE[key] = (c, S, F, M)
    return _CACHE[key]


@pytest.fixture
def pipe():
    return pipeline


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
