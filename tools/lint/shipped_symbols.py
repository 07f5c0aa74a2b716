#!/usr/bin/env python3
"""shipped_symbols.py: fails on libgkeys code that no shipped binary keeps.

Builds the shipped binaries (gkeys_lint.SHIPPED_ENTRY_POINTS: the CLI,
the workload runner, the benchmark program and the examples) at -O0 with
one section per function and per datum, links them with
-Wl,--gc-sections, and lists every strong text symbol (nm type T) of
libgkeys.a that no binary keeps. At -O0 nothing is inlined, so an
out-of-line function survives the link exactly when some shipped binary
can reach it. (-fdata-sections matters too: without it a switch's jump
table sits in the object's shared .rodata, which keeps its function.)

Each such function must be named in tools/lint/shipped_symbols.allow,
one per line, as `nm -C` prints it, followed by `#` and why it stays.
An entry that names a kept or an unknown symbol fails too, so the list
cannot outlive its reason.

The build configures benchmark/CMakeLists.txt, which pulls in the root
project, so gkeys_bench is built the way benchmark/run.py builds it and
the other binaries come from the same tree. The build directory is
reused across runs.

Usage:
  shipped_symbols.py --root . [--build-dir DIR] [-j N]

Exits 0 when every unkept symbol is allow-listed with a reason; prints
the offending symbols and exits 1 otherwise.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from gkeys_lint import SHIPPED_ENTRY_POINTS  # noqa: E402

ALLOW_FILE = os.path.join("tools", "lint", "shipped_symbols.allow")
NM_LINE_RE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(.+)$")


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def configure(root, build_dir):
    """Configures the benchmark project at -O0 with one section per
    function and datum and --gc-sections links; asks CMake's file API
    for the code model so targets are found by their sources, not by
    name."""
    query = os.path.join(build_dir, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    run(["cmake", "-S", os.path.join(root, "benchmark"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        stdout=subprocess.DEVNULL)


def code_model(build_dir):
    """(name, type, absolute sources, absolute artifacts) per target."""
    reply = os.path.join(build_dir, ".cmake", "api", "v1", "reply")
    index = sorted(glob.glob(os.path.join(reply, "index-*.json")))[-1]
    with open(index) as f:
        model_file = next(r["jsonFile"] for r in json.load(f)["objects"]
                          if r["kind"] == "codemodel")
    with open(os.path.join(reply, model_file)) as f:
        model = json.load(f)
    source_root = model["paths"]["source"]
    targets = []
    for ref in model["configurations"][0]["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            t = json.load(f)
        sources = {os.path.realpath(os.path.join(source_root, s["path"]))
                   for s in t.get("sources", [])}
        artifacts = [os.path.join(build_dir, a["path"])
                     for a in t.get("artifacts", [])]
        targets.append((t["name"], t["type"], sources, artifacts))
    return targets


def entry_points(root):
    files = []
    for pattern in SHIPPED_ENTRY_POINTS:
        files += sorted(glob.glob(os.path.join(root, pattern)))
    return [os.path.realpath(f) for f in files]


def symbols(path, kinds=None):
    """Demangled names nm lists as defined in `path` (of the given
    one-letter kinds, or of any kind)."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = NM_LINE_RE.match(line)
        if m and (kinds is None or m.group(1) in kinds):
            names.add(m.group(2))
    return names


def read_allow(path):
    """symbol -> reason; an entry without a reason is an error."""
    allow, errors = {}, []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, _, reason = line.partition("#")
            if not reason.strip():
                errors.append(f"{ALLOW_FILE}:{lineno}: no reason given")
            allow[symbol.strip()] = reason.strip()
    return allow, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=".")
    ap.add_argument("--build-dir", default=None,
                    help="default: ROOT/build-shipped")
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()
    root = os.path.realpath(args.root)
    build_dir = os.path.realpath(args.build_dir or
                                 os.path.join(root, "build-shipped"))

    configure(root, build_dir)
    targets = code_model(build_dir)
    library = next(t for t in targets if t[0] == "gkeys")
    shipped = []
    for source in entry_points(root):
        owners = [t for t in targets
                  if t[1] == "EXECUTABLE" and source in t[2]]
        if len(owners) != 1:
            print(f"shipped_symbols: {source} is built by "
                  f"{len(owners)} executable targets, want 1")
            return 1
        shipped.append(owners[0])
    run(["cmake", "--build", build_dir, "-j", str(args.jobs), "--target",
         library[0]] + [t[0] for t in shipped], stdout=subprocess.DEVNULL)

    defined = symbols(library[3][0], kinds="T")
    kept = set()
    for t in shipped:
        kept |= symbols(t[3][0])
    unkept = sorted(defined - kept)

    allow, errors = read_allow(os.path.join(root, ALLOW_FILE))
    for symbol in unkept:
        if symbol not in allow:
            errors.append(f"no shipped binary keeps {symbol}: move it to "
                          "tests/, delete it, or allow-list it with a "
                          f"reason in {ALLOW_FILE}")
    for symbol in sorted(set(allow) - set(unkept)):
        what = "is kept by a shipped binary" if symbol in defined else \
            "is not a strong text symbol of libgkeys.a"
        errors.append(f"{ALLOW_FILE}: {symbol} {what}; drop its entry")

    names = ", ".join(os.path.basename(t[3][0]) for t in shipped)
    print(f"shipped_symbols: {len(defined)} strong text symbols in "
          f"libgkeys.a, {len(unkept)} kept by none of {names}; "
          f"{len(allow)} allow-listed")
    for symbol in unkept:
        if symbol in allow:
            print(f"  allowed: {symbol}  # {allow[symbol]}")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
