"""Set-up probe: a fresh interpreter imports spinwire and builds one workload's fields.

    python3 perfbench/setup_probe.py SRC_DIR SPECS_JSON [--cli]

SRC_DIR is the directory that holds the ``spinwire`` package, SPECS_JSON a file
with a list of field specs (see bench_fields.py).  ``--cli`` also imports
``spinwire.cli``, which the sweep workload drives.  Prints one JSON object with
``import_ms`` (the import alone), ``build_ms`` (building every field, including
``load_profile`` for tabulated profiles) and ``kernel_ms``, the time of the
calibration kernel run afterwards in the same process, which scales the
probe's times to nominal speed.
"""

import json
import sys
import time

src_dir, specs_path = sys.argv[1], sys.argv[2]
with open(specs_path, "r", encoding="utf-8") as fh:
    specs = json.load(fh)

t0 = time.perf_counter()
sys.path.insert(0, src_dir)
import spinwire  # noqa: E402,F401

if "--cli" in sys.argv[3:]:
    import spinwire.cli  # noqa: E402,F401
t1 = time.perf_counter()

from bench_fields import build_field  # noqa: E402
from bench_timing import calibration_kernel  # noqa: E402

for spec in specs:
    build_field(spec)
t2 = time.perf_counter()
calibration_kernel()
t3 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "build_ms": (t2 - t1) * 1e3,
                  "kernel_ms": (t3 - t2) * 1e3}))
