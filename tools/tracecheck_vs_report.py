#!/usr/bin/env python3
"""Check that tracecheck reproduces a recording run's per-property counts.

Runs `TRACECHECK PROPS LOG [ARGS...]`, reads its per-property result lines
(`<name> activations=A holds=H failures=F  PASS|FAIL`), and compares A, H and
F with the row of the same name in REPORT, the --report-out JSON of the run
that recorded LOG. Rows the report has and tracecheck does not (properties
the recording run added beyond PROPS) are ignored.

Exit status: 0 when tracecheck checked at least one property and every one
matches, 1 otherwise (each mismatch is printed).

Usage: tracecheck_vs_report.py TRACECHECK REPORT PROPS LOG [ARGS...]
"""

import json
import re
import subprocess
import sys

LINE = re.compile(
    r"^(\S+)\s+activations=(\d+) holds=(\d+) failures=(\d+)\s+(PASS|FAIL)$")


def main(argv):
    if len(argv) < 5:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    tracecheck, report_path, props, log = argv[1:5]
    run = subprocess.run([tracecheck, props, log] + argv[5:],
                         capture_output=True, text=True, check=False)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode not in (0, 1):
        print(f"tracecheck exited {run.returncode}", file=sys.stderr)
        return 1

    with open(report_path, encoding="utf-8") as f:
        rows = {p["name"]: p for p in json.load(f)["properties"]}

    checked = 0
    errors = []
    for line in run.stdout.splitlines():
        m = LINE.match(line)
        if not m:
            continue
        checked += 1
        name = m.group(1)
        got = dict(zip(("activations", "holds", "failures"),
                       map(int, m.group(2, 3, 4))))
        row = rows.get(name)
        if row is None:
            errors.append(f"{name}: not in the report")
            continue
        for key, value in got.items():
            if row[key] != value:
                errors.append(f"{name}: {key} {value}, report says {row[key]}")
    if checked == 0:
        errors.append("tracecheck printed no property results")
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{checked} properties match the recording run's report")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
