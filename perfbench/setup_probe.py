"""One fresh-process set-up: import, load the config, build the oracle, one query.

Run as `python3 perfbench/setup_probe.py <config>`; the caller times the
whole process, interpreter start and exit included.  A table oracle loads and
normalises its CSV here, and an external oracle spawns its server and
completes the handshake.
"""

import sys

from copysampler import ExternalOracle, load_config

if __name__ == "__main__":
    oracle = load_config(sys.argv[1]).oracle.build()
    try:
        oracle.query([0.5] * oracle.d)
    finally:
        if isinstance(oracle, ExternalOracle):
            oracle.close()
