"""The transformer tests' model cases: each architecture at each compute
dtype.

A :class:`~repro.model.transformer.PagedTransformer` computes in its
storage's dtype.  The float64 cases keep the plain ``[opt]`` / ``[llama]``
ids and every bound they always had; the float32 cases (``[opt-float32]``,
``[llama-float32]``) are the model the server runs, held to each module's
named float32 bound.
"""

import numpy as np
import pytest

from repro.model import tiny_llama_config, tiny_opt_config

CASES = [
    pytest.param(("opt", np.float64), id="opt"),
    pytest.param(("llama", np.float64), id="llama"),
    pytest.param(("opt", np.float32), id="opt-float32"),
    pytest.param(("llama", np.float32), id="llama-float32"),
]


@pytest.fixture(params=CASES)
def case(request):
    return request.param


@pytest.fixture
def config(case):
    return tiny_opt_config() if case[0] == "opt" else tiny_llama_config()


@pytest.fixture
def dtype(case):
    return case[1]
