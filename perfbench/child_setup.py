"""Time the set-up of a fresh praf process and print it as JSON.

    python3 perfbench/child_setup.py CODEBOOK.json

Set-up is importing ``praf.cli`` and loading the codebook and the default
rule file, as ``praf audit`` does before it reads any policy.
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import praf.cli  # noqa: F401
    from praf.corpus import load_codebook
    from praf.detect import default_rules_path, load_rules
    t1 = time.perf_counter()
    load_codebook(sys.argv[1])
    t2 = time.perf_counter()
    load_rules(default_rules_path())
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_codebook_s": t2 - t1,
                      "load_rules_s": t3 - t2, "total_s": t3 - t0}))


if __name__ == "__main__":
    main()
