"""Start-up path of one CLI call, run in a fresh interpreter.

Prints the time to import numpy, then ``ptomech.cli``, then to call
``build_parser()``, as JSON. The caller times the whole process from outside.
"""

import json
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401
numpy_done = time.perf_counter()
import ptomech.cli  # noqa: E402
ptomech_done = time.perf_counter()
ptomech.cli.build_parser()
parser_done = time.perf_counter()

print(json.dumps({
    "numpy_import_s": numpy_done - start,
    "ptomech_import_s": ptomech_done - numpy_done,
    "build_parser_s": parser_done - ptomech_done,
    "module": ptomech.cli.__file__,
}))
