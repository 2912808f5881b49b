"""Rewrite pinned.json from the decograph checkout in the current directory.

    python3 bench/pin.py

Pins the serialized normal forms of the ``normalize`` workload's fixed
inputs (as SHA-256 digests) and the orbit size of every decoration in the
``orbit`` workload's pool.  Later runs check their outputs against these,
so rerun this only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import json
import os

import run
import workloads


def main() -> None:
    bound = workloads.make(run.load_decograph(os.getcwd()), {})
    normalize, orbit = bound["normalize"], bound["orbit"]
    pinned = {
        "normalize_digests": [
            normalize.digest(normalize.run({"text": text, "partner": None}))
            for text in normalize.pinned_inputs()
        ],
        "orbit_sizes": [orbit.run({"text": text})[0] for text in orbit.pool()],
    }
    with open(os.path.join(run.HERE, "pinned.json"), "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
