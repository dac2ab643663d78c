#!/usr/bin/env python3
"""Build corundum-server and the perfbench load generator from the working
tree, then run one benchmark workload.

    python3 perfbench/run.py --workload ingest|lookup|mixed --seed N --seconds S --trace 0|1

Run it from the repository root. Everything it builds or writes stays under
.bench_build/ there (Go's build cache included); a build is skipped when
the sources have not changed since the last one. The last line of its
output is the benchmark's JSON result (see perfbench/main.go).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

# The first build in a fresh checkout also compiles the standard library
# into the empty build cache.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def source_digest(root):
    """Hash every Go source and module file under root, skipping build output."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def revision(root, digest):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "tree-sha256:" + digest[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["ingest", "lookup", "mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", os.path.join("cmd", "corundum-server"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found; run from the repository root")

    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly",
               GOENV="off", CGO_ENABLED="0")

    digest = source_digest(root)
    stamp = os.path.join(bindir, "sources.sha256")
    server, bench = os.path.join(bindir, "corundum-server"), os.path.join(bindir, "perfbench")
    built = os.path.exists(stamp) and open(stamp).read() == digest
    if not (built and os.path.exists(server) and os.path.exists(bench)):
        for cmd, cwd in ((["go", "build", "-o", server, "./cmd/corundum-server"], root),
                         (["go", "build", "-o", bench, "."], os.path.join(root, "perfbench"))):
            r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                sys.exit(f"run.py: {' '.join(cmd)} failed")
        with open(stamp, "w") as f:
            f.write(digest)

    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-server", server, "-dir", os.path.join(build, "run"),
           "-revision", revision(root, digest)]
    # Own process group, so a timeout takes the server down with it.
    p = subprocess.Popen(cmd, cwd=root, env=env, process_group=0)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Take down anything left in the group (the server, if the
        # benchmark died without stopping it).
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    if code is None:
        sys.exit("run.py: benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
