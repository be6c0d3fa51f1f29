#!/usr/bin/env python3
"""Count the first-party non-test Rust lines of the workspace.

Every `.rs` file under `crates/*/src` and under the root package's `src/`
is counted line by line (blank lines and comments included) up to the
test module: the first `#[cfg(test)]` line that is directly followed by a
`mod tests` line. Everything from that attribute on is test code and is
not counted. A `#[cfg(test)]` in front of any other item (a test-only
helper or `thread_local!`) does not end the count.

Prints one row per crate (the root package reads as `grp-repro`), then
the total. With `--files`, every file's count follows its crate's row.

Usage:
  python3 scripts/count_lines.py [--files] [ROOT]   (ROOT: the repo, by default)
  python3 scripts/count_lines.py --self-test
"""

import os
import re
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ROOT_PACKAGE = "grp-repro"
TEST_MODULE = re.compile(r"\s*(pub(\([^)]*\))?\s+)?mod tests\b")


def non_test_lines(text):
    """Lines of one file before its `#[cfg(test)]` + `mod tests` pair."""
    lines = text.splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.strip() == "#[cfg(test)]" and TEST_MODULE.match(lines[i + 1]):
            return i
    return len(lines)


def rust_files(root):
    """(crate, path relative to root) for every counted file, sorted."""
    found = []
    sources = [(ROOT_PACKAGE, os.path.join(root, "src"))]
    crates = os.path.join(root, "crates")
    if os.path.isdir(crates):
        sources += [
            (name, os.path.join(crates, name, "src")) for name in sorted(os.listdir(crates))
        ]
    for crate, src in sources:
        for dirpath, _, filenames in os.walk(src):
            for name in filenames:
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    found.append((crate, os.path.relpath(path, root)))
    return sorted(found)


def report(root, files=False):
    """The table this script prints for the tree at `root`."""
    per_crate = {}
    for crate, path in rust_files(root):
        with open(os.path.join(root, path), encoding="utf-8") as f:
            count = non_test_lines(f.read())
        per_crate.setdefault(crate, []).append((path, count))
    out = []
    for crate in sorted(per_crate):
        entries = per_crate[crate]
        out.append(f"{crate:<12} {sum(n for _, n in entries):>6}")
        if files:
            out.extend(f"  {path:<44} {n:>6}" for path, n in entries)
    total = sum(n for entries in per_crate.values() for _, n in entries)
    out.append(f"{'total':<12} {total:>6}")
    return "\n".join(out)


SELF_TEST_TREE = {
    # the test module ends the count; the helper above it does not
    "crates/alpha/src/lib.rs": (
        "//! Alpha.\n"
        "\n"
        "#[cfg(test)]\n"
        "thread_local! {\n"
        "    static CALLS: u32 = 0;\n"
        "}\n"
        "\n"
        "pub fn one() -> u32 {\n"
        "    1\n"
        "}\n"
        "\n"
        "#[cfg(test)]\n"
        "mod tests {\n"
        "    #[test]\n"
        "    fn one_is_one() {}\n"
        "}\n"
    ),
    # no test module: every line counts
    "crates/alpha/src/bin/tool.rs": "fn main() {\n    alpha::one();\n}\n",
    # `#[cfg(test)]` as the last line, and in a comment, end nothing
    "crates/beta/src/lib.rs": (
        "// `#[cfg(test)]` then `mod tests` is where a count stops\n"
        "pub fn two() -> u32 {\n"
        "    2\n"
        "}\n"
        "#[cfg(test)]\n"
    ),
    "src/lib.rs": "pub use alpha::one;\n\n#[cfg(test)]\nmod tests {}\n",
}

SELF_TEST_EXPECTED = """\
alpha            14
  crates/alpha/src/bin/tool.rs                      3
  crates/alpha/src/lib.rs                          11
beta              5
  crates/beta/src/lib.rs                            5
grp-repro         2
  src/lib.rs                                        2
total            21"""


def self_test():
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        for path, text in SELF_TEST_TREE.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        got = report(root, files=True)
    if got != SELF_TEST_EXPECTED:
        print("count_lines self-test FAILED\n--- expected\n" + SELF_TEST_EXPECTED
              + "\n--- got\n" + got, file=sys.stderr)
        return 1
    print("count_lines self-test passed")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    files = "--files" in argv
    rest = [arg for arg in argv if arg != "--files"]
    if len(rest) > 1 or any(arg.startswith("-") for arg in rest):
        print(__doc__, file=sys.stderr)
        return 2
    print(report(rest[0] if rest else REPO, files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
