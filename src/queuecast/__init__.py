"""Limit-order-book analytics: best-quote reconstruction from LOBSTER-format
event streams or a zero-intelligence simulator, queue-imbalance sampling at
mid-price changes, logistic and local-logistic classifiers, and ROC / mean
squared residual evaluation against a constant-1/2 null model."""

__version__ = "0.1.0"

from .book import (  # noqa: F401
    BUY,
    SELL,
    BestQuoteState,
    BookEvent,
    Order,
    OrderBook,
    queue_imbalance,
)
from .evaluate import (  # noqa: F401
    EvalReport,
    RocCurve,
    auc,
    auc_from_curve,
    imbalance_histogram,
    mean_squared_residual,
    null_model_report,
    queue_survivor,
    roc_curve,
)
from .lobster import (  # noqa: F401
    LobsterMessage,
    SessionWindow,
    messages_to_events,
    parse_messages,
    replay,
    summary_stats,
    verify_against_l1,
)
from .local import (  # noqa: F401
    CvResult,
    LocalLogisticFit,
    cv_bandwidth,
    fit_local_logistic,
    predict_local,
)
from .logistic import (  # noqa: F401
    LogisticFit,
    TestResult,
    chi2_sf_1df,
    fit_intercept_only,
    fit_logistic,
    lr_test,
    predict_logistic,
    wald_test,
)
from .sampling import (  # noqa: F401
    SamplePoint,
    SplitDataset,
    build_day_samples,
    mid_change_times,
    sample_event_time,
    sample_uniform_time,
    subsample_day,
    train_test_split,
)
# the simulate() entry point itself stays namespaced (queuecast.simulate.simulate)
# so the submodule attribute is not shadowed by a same-named function
from .simulate import SimResult, ZiConfig, regime_preset  # noqa: F401
