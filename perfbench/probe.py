"""Set-up step run in a fresh process: import loopcoh, parse a job config
and print the Koszul oracle's ranks for it as JSON.

    python3 probe.py CONFIG
"""
import json
import sys

from loopcoh.config import parse_config
from loopcoh.koszul import oracle_dimensions


def main(path):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    oracle = oracle_dimensions(cfg.gens, cfg.bounds["max_degree"])
    print(json.dumps({"oracle": oracle}))


if __name__ == "__main__":
    main(sys.argv[1])
