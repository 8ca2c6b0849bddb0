#!/usr/bin/env python3
"""Regenerate perfbench/ref/labels.tsv from a full dataset CSV.

    pulpclass dataset build --out ds.csv      # all 448 configurations
    python3 perfbench/make_reference.py ds.csv > perfbench/ref/labels.tsv

The CSV stores doubles with 17 significant digits, so the energies and
cycles copied here compare exactly against a fresh build.
"""
import csv
import sys


def main(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    head, body = rows[0], rows[1:]
    energy = [head.index(f"e{k}") for k in range(1, 9)]
    cycles = [head.index(f"c{k}") for k in range(1, 9)]
    cols = ["kernel", "dtype", "size_bytes", "label"]
    idx = [head.index(c) for c in cols]
    print("\t".join(cols + [f"e{k}" for k in range(1, 9)] +
                    [f"c{k}" for k in range(1, 9)]))
    for r in body:
        print("\t".join([r[i] for i in idx] + [r[i] for i in energy] +
                        [r[i] for i in cycles]))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: make_reference.py DATASET.csv")
    main(sys.argv[1])
