"""The environment a result was measured in, and whether it is comparable.

The compiled kernel tier resolves at run time: a kernel whose compiled
provider fails to build or verify silently falls back to numpy, which reads
as a ~1.5x regression on the Fast-Coreset workloads.  Every result
therefore records the provider of each kernel, and a run whose providers
differ from the ones recorded in ``expected_environment.json`` is flagged
as not comparable.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

import numpy as np

from repro.native import native_status

EXPECTED = Path(__file__).with_name("expected_environment.json")


def kernel_providers() -> Dict[str, str]:
    return {name: entry["provider"] for name, entry in native_status()["kernels"].items()}


def describe() -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    providers = kernel_providers()
    expected = json.loads(EXPECTED.read_text())["kernel_providers"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_providers": providers,
        "comparable": providers == expected,
    }
