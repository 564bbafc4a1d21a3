import os

# one BLAS thread unless the caller says otherwise; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis  # noqa: E402

hypothesis.settings.register_profile(
    "suite", deadline=None, derandomize=True, max_examples=25)
hypothesis.settings.load_profile("suite")
