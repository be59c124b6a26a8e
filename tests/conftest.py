import importlib.util
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from nnlif import Domain, OnePopParams, TwoPopParams, normalize_gaussian
from nnlif.fdm import fdm_reference

_PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# canonical geometry of every experiment
V_RESET = 1.0
V_THRESHOLD = 2.0

# reference-solver resolution used by the acceptance gate; richardson pairs
# (h, h/2) cancel the leading upwind error
REFERENCE_H = 1.0 / 512.0

# randomized tests draw the same examples on every run, and a slow example
# (an assembly at a new M) is not a failure
settings.register_profile("nnlif", derandomize=True, deadline=None)
settings.load_profile("nnlif")


@pytest.fixture(scope="session")
def domain():
    return Domain(V_RESET, V_THRESHOLD)


@pytest.fixture(scope="session")
def linear_params():
    """Baseline drift-diffusion parameters of the accuracy experiments."""
    return OnePopParams(a0=1.0, a1=0.1, b=0.0)


@pytest.fixture(scope="session")
def gaussian_ic(domain):
    return normalize_gaussian(-1.0, 0.5, domain)


@pytest.fixture(scope="session")
def onepop_reference(domain, linear_params, gaussian_ic):
    """Grid-solver reference density at t=0.2 for the linear configuration;
    shared by the temporal, spatial, stability and cross-method criteria."""
    return fdm_reference(
        gaussian_ic, linear_params, domain, 0.2, h=REFERENCE_H, richardson=True
    )


@pytest.fixture(scope="session")
def twopop_ladder_params():
    return TwoPopParams(
        b_e_to_e=0.5,
        b_e_to_i=0.5,
        b_i_to_e=0.75,
        b_i_to_i=0.25,
        diffusion_mode="constant",
        diffusion_constant=1.0,
        refractory_mode="pass-through",
    )


@pytest.fixture(scope="session")
def twopop_ics(domain):
    return (
        normalize_gaussian(-1.0, 0.5, domain),
        normalize_gaussian(0.0, 0.25, domain),
    )


@pytest.fixture(scope="session")
def twopop_reference(domain, twopop_ladder_params, twopop_ics):
    ic_e, ic_i = twopop_ics
    return fdm_reference(
        (ic_e, ic_i), twopop_ladder_params, domain, 0.2, h=REFERENCE_H, richardson=True
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded read-only (it imports perfbench's
    ``checks`` and defines dataclasses, which look their module up)."""
    monkeypatch.syspath_prepend(_PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
