#!/usr/bin/env python3
"""Build the benchmark: compile the repository's main sources and the
benchmark's own Scala sources with the Scala compiler that ships in Spark's
jars directory.

    python3 wmbench/build.py      # prints the classes directory

The output lives in `.bench_build/wmbench/<fingerprint>/classes`, where the
fingerprint is a SHA-256 over every compiled source file, the compiler jar
and the Java version. A build compiles into a fresh directory and is only
published once scalac succeeds, and older fingerprints are deleted, so
stale classes can never stand in for sources that no longer compile.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Spark's jars directory, from SPARK_HOME or the spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError("Spark with a bundled Scala compiler not found: set SPARK_HOME")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("java not found: set JAVA_HOME")
    return found


def sources(root: Path = ROOT) -> list:
    main = sorted(glob.glob(str(root / "src" / "main" / "scala" / "**" / "*.scala"), recursive=True))
    own = sorted(glob.glob(str(HERE / "src" / "*.scala")))
    if not main:
        raise BuildError(f"no Scala sources under {root / 'src' / 'main' / 'scala'}")
    return main + own


def fingerprint(files: list, jars: Path, java_exe: str) -> str:
    h = hashlib.sha256()
    compiler = sorted(jars.glob("scala-compiler-*.jar"))[0].name
    version = subprocess.run([java_exe, "-XX:-UsePerfData", "-version"], capture_output=True, text=True).stderr
    h.update(f"{compiler}\n{version}\n".encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        h.update(Path(f).read_bytes() + b"\0")
    return h.hexdigest()


def build(root: Path = ROOT) -> tuple:
    """Compile if needed; return (classes directory, source fingerprint)."""
    jars = spark_jars()
    java_exe = java()
    files = sources(root)
    fp = fingerprint(files, jars, java_exe)
    base = root / ".bench_build" / "wmbench"
    done = base / fp[:24]
    if (done / "ok").exists():
        return done / "classes", fp
    for old in base.glob("*"):
        shutil.rmtree(old, ignore_errors=True)
    work = base / f"{fp[:24]}.partial"
    (work / "classes").mkdir(parents=True)
    (work / "tmp").mkdir()
    lib = [next(jars.glob(f"{name}-*.jar")) for name in ("scala-compiler", "scala-library", "scala-reflect")]
    cmd = [java_exe, "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", os.pathsep.join(map(str, lib)), "scala.tools.nsc.Main",
           "-nowarn", "-d", str(work / "classes"), "-classpath", str(jars / "*")] + files
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        shutil.rmtree(work, ignore_errors=True)
        raise BuildError("scalac failed:\n" + res.stdout + res.stderr)
    shutil.rmtree(work / "tmp")
    work.rename(done)
    (done / "ok").write_text(fp + "\n")
    return done / "classes", fp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(1)
