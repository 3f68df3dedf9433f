"""The private scipy HiGHS binding that the planar exchange's LP drives.

This module imports only scipy, so that it still reports clearly when the
binding is gone and ``homapprox.weighted_approx`` itself no longer imports.
"""

import pytest
import scipy

# the names weighted_approx._ExchangeLP calls
_METHODS = ("setOptionValue", "addRows", "addCols", "run", "getModelStatus",
            "modelStatusToString", "getInfo", "getSolution", "getNumCol")
# the fields it reads from getInfo() and getSolution()
_FIELDS = (("getInfo", "simplex_iteration_count"),
           ("getInfo", "objective_function_value"),
           ("getSolution", "row_dual"))


def test_private_highs_binding_is_present():
    """pyproject.toml pins scipy to the 1.17 series, whose private
    ``scipy.optimize._highspy._core._Highs`` holds one warm-started LP per
    planar fit; a scipy without it needs a new pin or a port."""
    try:
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs
    except ImportError as exc:
        pytest.fail(f"scipy {scipy.__version__} lacks the private HiGHS "
                    f"binding scipy.optimize._highspy._core ({exc}); "
                    "homapprox.weighted_approx needs _Highs and "
                    "HighsModelStatus from it")
    missing = [m for m in _METHODS if not hasattr(_Highs, m)]
    assert not missing, (f"scipy {scipy.__version__}: _Highs lacks {missing}, "
                         "which homapprox.weighted_approx._ExchangeLP calls")
    assert hasattr(HighsModelStatus, "kOptimal")
    highs = _Highs()
    missing = [f"{m}().{f}" for m, f in _FIELDS
               if not hasattr(getattr(highs, m)(), f)]
    assert not missing, (f"scipy {scipy.__version__}: _Highs lacks {missing}, "
                         "which homapprox.weighted_approx._ExchangeLP reads")
