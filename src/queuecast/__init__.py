"""Limit-order-book analytics: best-quote reconstruction from LOBSTER-format
event streams or a zero-intelligence simulator, queue-imbalance sampling at
mid-price changes, logistic and local-logistic classifiers, and ROC / mean
squared residual evaluation against a constant-1/2 null model.

The names below resolve from their submodules on first use, so that
importing one submodule, as each CLI subcommand does, loads only what that
submodule imports.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "book": "BUY SELL BestQuoteState BookEvent Order OrderBook",
    "evaluate": "RocCurve auc auc_from_curve imbalance_histogram mean_squared_residual "
                "null_model_report queue_survivor roc_curve",
    "lobster": "LobsterMessage SessionWindow messages_to_events parse_messages replay "
               "summary_stats verify_against_l1",
    "local": "CvResult LocalLogisticFit cv_bandwidth fit_local_logistic predict_local",
    "logistic": "chi2_sf_1df fit_intercept_only fit_logistic lr_test predict_logistic wald_test",
    "reports": "EvalReport LogisticFit TestResult",
    "sampling": "build_day_samples queue_imbalance subsample_day",
    # the simulate() entry point itself stays namespaced (queuecast.simulate.simulate)
    # so the submodule attribute is not shadowed by a same-named function
    "simulate": "SimResult ZiConfig regime_preset",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (
    "book", "errors", "evaluate", "lobster", "local", "logistic", "sampling", "simulate",
)

__all__ = sorted(_MODULE_OF) + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
