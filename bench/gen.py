"""Seeded inputs for the benchmark: a Java source corpus and a metrics table.

Both generators run on their own SplitMix64 stream, so the same seed gives
byte-identical inputs, and neither imports ``javascale``: what they plant
is an oracle made apart from the program under test.

Java corpus
    Every project plants ``methods = e^alpha * classes^beta * e^(sigma*z)``
    with the acceptance suite's reference alpha and beta, and interfaces by
    its reference k = 2 law.  Method bodies hold one to four statements,
    six in ten of them plain arithmetic and control flow, so that SLOC and
    calls per class come near the reference SLOC and calls laws.  Class
    counts are drawn log-uniformly inside fixed bands chosen so that every
    subset of the benchmark's model grid holds at least three projects.
    While emitting the source the generator counts, by the
    conventions of ``javascale.metrics`` (enums and records are classes,
    anonymous classes are classes, ``methods`` counts methods declared in
    classes only, ``calls`` counts call sites and excludes ``new``), the
    expected ``sloc``, ``classes``, ``interfaces``, ``methods``,
    ``constructors``, ``calls``, ``casts`` and ``instanceof_count``.

    Two constructs are left out so that every project matches: record
    compact constructors, which the extractor skips as unparseable, and
    explicit ``this(...)``/``super(...)`` calls, which it records as CALLS
    although ``metrics.py`` leaves constructor invocations out of ``calls``.

Metrics table
    A paper-sized table (30,911 rows) with the acceptance suite's reference
    laws planted: methods~classes with beta 1.1055 and interfaces~classes
    with k = 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import NormalDist

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def unit(self) -> float:
        """Uniform in (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def normal(self) -> float:
        """Standard normal by Box-Muller (one of the pair)."""
        return math.sqrt(-2.0 * math.log(self.unit())) * math.cos(
            2.0 * math.pi * self.unit()
        )

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(math.log(lo) + self.unit() * (math.log(hi) - math.log(lo)))


# ---------------------------------------------------------------------------
# Java corpus
# ---------------------------------------------------------------------------

# The reference methods~classes law of the acceptance suite, with its
# log-space noise narrowed so that 13 projects recover beta.
CORPUS_ALPHA = 1.0949
CORPUS_BETA = 1.1055
CORPUS_SIGMA = 0.15
CORPUS_INTERFACES = (0.14, 0.083)  # log i = a + b (log classes)^2

# (low, high, projects): class counts are log-uniform in [low, high).  The
# benchmark's model grid fits subsets [10,100), [100,500) and [50,1000)
# among others, and each fit needs three projects.
CORPUS_BANDS = ((2, 10, 3), (10, 100, 8), (150, 160, 3))

ORACLE_FIELDS = (
    "sloc",
    "classes",
    "interfaces",
    "methods",
    "constructors",
    "calls",
    "casts",
    "instanceof_count",
)


@dataclass
class Counts:
    sloc: int = 0
    classes: int = 0
    interfaces: int = 0
    methods: int = 0
    constructors: int = 0
    calls: int = 0
    casts: int = 0
    instanceof_count: int = 0


class _Unit:
    """One compilation unit being written; counts SLOC as lines are added."""

    def __init__(self, counts: Counts):
        self.lines: list[str] = []
        self.counts = counts

    def code(self, text: str) -> None:
        self.lines.append(text)
        self.counts.sloc += 1

    def blank_or_comment(self, text: str) -> None:
        self.lines.append(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_FIELD_LINES = (
    "    private int count;",
    '    private String label = "node";',
    "    private final List<String> names = new ArrayList<>();",
    "    private Object ref;",
)


def _plain_statement(rng: SplitMix64, u: _Unit, n: int) -> None:
    """Emit one statement without calls, casts or instantiations."""
    k = rng.between(2, 9)
    pick = rng.below(7)
    if pick == 0:
        u.code(f"        x = x * {k} + {n};")
    elif pick == 1:
        u.code(f"        int v{n} = x % {k};")
        u.code(f"        x -= v{n};")
    elif pick == 2:
        u.code(f"        if (x > {k}) {{")
        u.code(f"            x -= {k};")
        u.code("        } else {")
        u.code(f"            x += {n};")
        u.code("        }")
    elif pick == 3:
        u.code(f"        while (x > {k * 100}) {{")
        u.code("            x >>= 1;")
        u.code("        }")
    elif pick == 4:
        u.code(f"        boolean f{n} = x % 2 == 0 && x > {k};")
        u.code(f"        x += f{n} ? 1 : 0;")
    elif pick == 5:
        u.code("        switch (x & 3) {")
        u.code("            case 0:")
        u.code("                x++;")
        u.code("                break;")
        u.code("            default:")
        u.code("                x--;")
        u.code("        }")
    else:
        u.blank_or_comment("        // fold the low bits")
        u.code(f"        x ^= {k};")


def _statement(rng: SplitMix64, u: _Unit, n: int, with_fields: bool) -> None:
    """Emit one statement of a method body taking ``int x``.

    ``n`` makes local names unique; each branch adds its own counts.  Six
    statements in ten are plain ones.
    """
    if rng.below(10) < 6:
        _plain_statement(rng, u, n)
        return
    c = u.counts
    pick = rng.below(15 if with_fields else 8)
    if pick == 0:
        u.code(f"        int a{n} = Math.max(x, {rng.between(1, 99)});")
        c.calls += 1
    elif pick == 1:
        u.code(f"        StringBuilder sb{n} = new StringBuilder();")
        u.code(f"        sb{n}.append(x).append('{{');  // char literal brace")
        c.calls += 2
    elif pick == 2:
        u.code(f"        double d{n} = (double) x / (x + {rng.between(2, 9)});")
        c.casts += 1
    elif pick == 3:
        u.code(f"        long r{n} = (long) Math.round(x * 1.5);")
        c.casts += 1
        c.calls += 1
    elif pick == 4:
        u.code(f"        for (int i{n} = 0; i{n} < x; i{n}++) {{")
        u.code(f"            x += i{n} % 3;")
        u.code("        }")
    elif pick == 5:
        u.blank_or_comment("        /* a block comment")
        u.blank_or_comment('           spanning "two" lines { } */')
        u.code(f'        String s{n} = "see http://example.org/" + x;')
    elif pick == 6:
        u.code(f"        Integer boxed{n} = Integer.valueOf(x);")
        u.code(f"        x += boxed{n}.hashCode() > 0 ? 1 : 0;")
        c.calls += 2
    elif pick == 7:
        u.code(f"        String t{n} = new StringBuilder().append(x).toString();")
        c.calls += 2
    elif pick == 8:
        u.code("        names.add(String.valueOf(x));")
        c.calls += 2
    elif pick == 9:
        u.code("        if (ref instanceof String) {")
        u.code("            label = (String) ref;")
        u.code("        }")
        c.instanceof_count += 1
        c.casts += 1
    elif pick == 10:
        u.code(f"        if (ref instanceof Integer v{n}) {{")
        u.code(f"            count += v{n};")
        u.code("        }")
        c.instanceof_count += 1
    elif pick == 11:
        u.code("        names.forEach(s -> count += s.length());")
        c.calls += 2
    elif pick == 12:
        u.code("        try {")
        u.code("            count = Integer.parseInt(label.trim());")
        u.code("        } catch (NumberFormatException e) {")
        u.code("            count = 0;")
        u.code("        }")
        c.calls += 2
    elif pick == 13:
        u.code(f"        Object o{n} = names.isEmpty() ? null : names.get(0);")
        u.code(f"        ref = o{n};")
        c.calls += 2
    else:
        u.blank_or_comment("        // keep the label short")
        u.code("        label = label.length() > 8 ? label.substring(0, 8) : label;")
        c.calls += 2


def _method(
    rng: SplitMix64, u: _Unit, name: str, with_fields: bool, override: bool = False
) -> None:
    c = u.counts
    if rng.below(3) == 0:
        u.blank_or_comment("    /**")
        u.blank_or_comment(f"     * Computes {name} from {{@code x}}.")
        u.blank_or_comment("     */")
    if override:
        u.code("    @Override")
    u.code(f"    public int {name}(int x) {{")
    for k in range(rng.between(1, 4)):
        _statement(rng, u, k, with_fields)
    if with_fields and rng.below(2) == 0:
        u.code("        return count + x;")
    else:
        u.code("        return x;")
    u.code("    }")
    c.methods += 1


class _Project:
    def __init__(self, rng: SplitMix64, index: int, classes: int, methods: int):
        self.rng = rng
        self.pid = f"p{index:03d}"
        self.classes = classes
        self.methods = methods
        self.counts = Counts()
        self.files: dict[str, str] = {}

    def _pkg(self, k: int) -> str:
        return f"bench.{self.pid}.m{k % (1 + self.classes // 150)}"

    def build(self) -> None:
        rng = self.rng
        c = self.counts
        a, b = CORPUS_INTERFACES
        n_ifaces = max(1, round(math.exp(a + b * math.log(self.classes) ** 2)))
        n_anon = min(self.classes // 12, self.methods // 6)
        n_enum = self.classes // 20
        n_record = self.classes // 25
        n_nested = self.classes // 3
        n_top = self.classes - n_anon - n_enum - n_record - n_nested
        # the methods left after the anonymous classes' own, spread at
        # random over the top-level, nested, enum and record classes
        per_slot = [0] * (n_top + n_nested + n_enum + n_record)
        for _ in range(self.methods - n_anon):
            per_slot[rng.below(len(per_slot))] += 1
        tops = per_slot[:n_top]
        nested = per_slot[n_top : n_top + n_nested]
        enums = per_slot[n_top + n_nested : n_top + n_nested + n_enum]
        records = per_slot[n_top + n_nested + n_enum :]
        for k in range(n_ifaces):
            self._interface(k)
        anon_at = [0] * n_top
        for _ in range(n_anon):
            anon_at[rng.below(n_top)] += 1
        nested_at: list[list[int]] = [[] for _ in range(n_top)]
        for m in nested:
            nested_at[rng.below(n_top)].append(m)
        for k in range(n_top):
            self._class(k, tops[k], anon_at[k], nested_at[k], n_ifaces)
        for k, m in enumerate(enums):
            self._enum(k, m)
        for k, m in enumerate(records):
            self._record(k, m)
        assert c.classes == self.classes and c.methods == self.methods

    def _write(self, pkg: str, name: str, u: _Unit) -> None:
        self.files[f"src/{pkg.replace('.', '/')}/{name}.java"] = u.text()

    def _header(self, u: _Unit, pkg: str) -> None:
        u.blank_or_comment("// Generated benchmark source.")
        u.code(f"package {pkg};")
        u.blank_or_comment("")
        u.code("import java.util.ArrayList;")
        u.code("import java.util.List;")
        u.blank_or_comment("")

    def _interface(self, k: int) -> None:
        u = _Unit(self.counts)
        pkg = self._pkg(k)
        self._header(u, pkg)
        u.code(f"public interface Shape{k} {{")
        u.code(f"    int apply{k}(int x);")
        if self.rng.below(2) == 0:
            u.code(f"    default String describe{k}() {{")
            u.code(f'        return "shape" + apply{k}(1);')
            u.code("    }")
            self.counts.calls += 1
        u.code("}")
        self.counts.interfaces += 1
        self._write(pkg, f"Shape{k}", u)

    def _class(
        self, k: int, n_methods: int, n_anon: int, nested: list[int], n_ifaces: int
    ) -> None:
        rng = self.rng
        c = self.counts
        u = _Unit(c)
        pkg = self._pkg(k)
        self._header(u, pkg)
        name = f"Node{k}"
        iface = rng.below(n_ifaces) if n_methods and rng.below(2) == 0 else None
        head = f"public class {name}"
        if k > 0 and rng.below(3) == 0:
            parent = rng.below(k)
            if self._pkg(parent) != pkg:
                head += f" extends {self._pkg(parent)}.Node{parent}"
            else:
                head += f" extends Node{parent}"
        if iface is not None:
            if self._pkg(iface) != pkg:
                head += f" implements {self._pkg(iface)}.Shape{iface}"
            else:
                head += f" implements Shape{iface}"
        u.code(head + " {")
        c.classes += 1
        for line in _FIELD_LINES:
            u.code(line)
        for a in range(n_anon):
            u.code(f"    private final Runnable task{a} = new Runnable() {{")
            u.code("        @Override")
            u.code("        public void run() {")
            u.code("            count++;")
            u.code("        }")
            u.code("    };")
            c.classes += 1
            c.methods += 1
        u.blank_or_comment("")
        ctors = rng.below(3)
        if ctors >= 1:
            u.code(f"    public {name}() {{")
            u.code("    }")
        if ctors == 2:
            u.code(f"    public {name}(int start) {{")
            u.code("        this.count = start;")
            u.code("    }")
        c.constructors += ctors
        for m in range(n_methods):
            if m == 0 and iface is not None:
                _method(rng, u, f"apply{iface}", True, override=True)
            else:
                _method(rng, u, f"step{m}", True)
        for j, nm in enumerate(nested):
            u.code(f"    public static class Part{j} {{")
            c.classes += 1
            for m in range(nm):
                _method(rng, u, f"part{m}", False)
            u.code("    }")
        u.code("}")
        self._write(pkg, name, u)

    def _enum(self, k: int, n_methods: int) -> None:
        u = _Unit(self.counts)
        pkg = self._pkg(k)
        self._header(u, pkg)
        name = f"Level{k}"
        u.code(f"public enum {name} {{")
        u.code("    LOW(1), MID(2), HIGH(3);")
        u.blank_or_comment("")
        u.code("    private final int weight;")
        u.blank_or_comment("")
        u.code(f"    {name}(int weight) {{")
        u.code("        this.weight = weight;")
        u.code("    }")
        self.counts.classes += 1
        self.counts.constructors += 1
        for m in range(n_methods):
            _method(self.rng, u, f"scale{m}", False)
        u.code("}")
        self._write(pkg, name, u)

    def _record(self, k: int, n_methods: int) -> None:
        u = _Unit(self.counts)
        pkg = self._pkg(k)
        self._header(u, pkg)
        u.code(f"public record Pair{k}(int left, List<String> tags) {{")
        self.counts.classes += 1
        for m in range(n_methods):
            _method(self.rng, u, f"mix{m}", False)
        u.code("}")
        self._write(pkg, f"Pair{k}", u)


@dataclass
class Corpus:
    """A generated corpus: source files per project plus the oracle."""

    files: dict[str, dict[str, str]] = field(default_factory=dict)  # pid -> path -> text
    expected: dict[str, dict[str, int]] = field(default_factory=dict)  # pid -> counts


def corpus_class_counts(seed: int) -> list[int]:
    """Class count per project, log-uniform within each band.

    The draws are stratified: the j-th of a band's n projects falls in the
    j-th of n equal slices of the band's log range, which keeps the corpus
    size, and so the time of one round, nearly the same for every seed.
    """
    rng = SplitMix64(seed)
    sizes = []
    for lo, hi, n in CORPUS_BANDS:
        step = (math.log(hi) - math.log(lo)) / n
        sizes += [
            int(math.exp(math.log(lo) + (j + rng.unit()) * step)) for j in range(n)
        ]
    return sizes


def corpus_noise(seed: int) -> list[float]:
    """Standard normal noise per project, stratified like the class counts.

    Within a band of n projects the j-th draw falls in the j-th of n equally
    likely slices of the normal distribution; the draws are then centred
    on their mean and shuffled, so the band's total size barely depends on
    the seed.
    """
    rng = SplitMix64(seed ^ 0x5EED_1A77)
    normal = NormalDist()
    zs = []
    for _, _, n in CORPUS_BANDS:
        band = [normal.inv_cdf((j + rng.unit()) / n) for j in range(n)]
        mean = math.fsum(band) / n
        band = [z - mean for z in band]
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            band[i], band[j] = band[j], band[i]
        zs += band
    return zs


def planted_methods(classes: int, z: float) -> int:
    law = CORPUS_ALPHA + CORPUS_BETA * math.log(classes) + CORPUS_SIGMA * z
    return max(1, round(math.exp(law)))


def generate_corpus(seed: int) -> Corpus:
    """The Java corpus for ``seed``; a pure function of the seed."""
    corpus = Corpus()
    for index, (classes, z) in enumerate(zip(corpus_class_counts(seed), corpus_noise(seed))):
        methods = planted_methods(classes, z)
        project = _Project(SplitMix64(seed * 1_000_003 + index), index, classes, methods)
        project.build()
        corpus.files[project.pid] = project.files
        corpus.expected[project.pid] = asdict(project.counts)
    return corpus


def write_corpus(corpus: Corpus, root: Path) -> None:
    """Write the projects, ``manifest.txt`` and the planted counts
    (``expected.json``) under ``root``."""
    for pid, files in corpus.files.items():
        for rel, text in files.items():
            path = root / pid / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    (root / "manifest.txt").write_text(
        "".join(f"{pid}\n" for pid in corpus.files), encoding="utf-8"
    )
    (root / "expected.json").write_text(
        json.dumps(corpus.expected, sort_keys=True, indent=1), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Metrics table and the commands run on it
# ---------------------------------------------------------------------------

TABLE_ROWS = 30_911
TABLE_COLUMNS = (
    "project_id,sloc,classes,interfaces,modules,methods,constructors,calls,"
    "instanceof_count,casts,dui,if_count,used_total,used_internal,used_jdk,"
    "used_external,efferent_coupling"
)
# Reference laws of the acceptance suite: log y = alpha + beta * (log x)^k.
TABLE_METHODS = (1.0949, 1.1055, 1, 0.5)  # alpha, beta, k, sigma
TABLE_INTERFACES = (0.14, 0.083, 2, 0.5)
TABLE_SLOC = (3.5549, 1.0939, 1, 0.3)
TABLE_CALLS = (1.64, 0.9971, 1, 0.4)


def _law(rng: SplitMix64, classes: int, law: tuple[float, float, int, float]) -> int:
    alpha, beta, k, sigma = law
    lx = math.log(classes)
    return int(round(math.exp(alpha + beta * lx**k + sigma * rng.normal())))


def table_rows(seed: int) -> list[dict[str, int | str]]:
    """Rows of the metrics table for ``seed``; classes are log-uniform."""
    rng = SplitMix64(seed ^ 0x7AB1E)
    rows = []
    for i in range(TABLE_ROWS):
        classes = int(rng.log_uniform(1, 10_000))
        interfaces = _law(rng, classes, TABLE_INTERFACES)
        internal = rng.between(0, classes + interfaces)
        jdk = rng.between(1, 40)
        external = rng.between(0, 60)
        rows.append(
            {
                "project_id": f"t{i:05d}",
                "sloc": max(1, _law(rng, classes, TABLE_SLOC)),
                "classes": classes,
                "interfaces": interfaces,
                "modules": classes + interfaces,
                "methods": _law(rng, classes, TABLE_METHODS),
                "constructors": rng.between(0, classes),
                "calls": _law(rng, classes, TABLE_CALLS),
                "instanceof_count": rng.between(0, classes // 4 + 1),
                "casts": rng.between(0, classes // 2 + 1),
                "dui": rng.between(0, classes),
                "if_count": rng.between(0, classes // 3),
                "used_total": internal + jdk + external,
                "used_internal": internal,
                "used_jdk": jdk,
                "used_external": external,
                "efferent_coupling": jdk + external,
            }
        )
    return rows


def write_table(rows: list[dict[str, int | str]], path: Path) -> None:
    cols = TABLE_COLUMNS.split(",")
    lines = [TABLE_COLUMNS]
    lines += [",".join(str(row[c]) for c in cols) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The pipeline's model grid: its default grid less the cell fitted on
# [1000, 3000) classes.  That cell needs three projects of 1000 classes or
# more, about 70k SLOC each at the reference density.
PIPELINE_MODELS = [
    {"id": "m1", "y": "methods", "x": "classes"},
    {"id": "m2", "y": "methods", "x": "classes", "subset": [10, 3000]},
    {"id": "m3", "y": "methods", "x": "classes", "subset": [20, 3000]},
    {"id": "m4", "y": "methods", "x": "classes", "subset": [30, 3000]},
    {"id": "m5", "y": "methods", "x": "classes", "subset": [50, 1000]},
    {"id": "m6", "y": "methods", "x": "classes", "subset": [100, 500]},
    {"id": "m7", "y": "methods", "x": "classes", "subset": [10, 100]},
]

# The validate grid: OLS, robust and k = 2 cells over three test sets.
STATS_GRID = {
    "models": [
        {"id": "m1", "y": "methods", "x": "classes", "k": 1, "subset": None},
        {"id": "m5", "y": "methods", "x": "classes", "k": 1, "subset": [50, 1000]},
        {"id": "r1", "y": "methods", "x": "classes", "k": 1, "subset": None,
         "robust": True},
        {"id": "i2", "y": "interfaces", "x": "classes", "k": 2, "subset": None},
    ],
    "testsets": [
        {"name": "vsmall", "metric": "classes", "range": [0, 10]},
        {"name": "vlarge", "metric": "classes", "range": [3000, None]},
        {"name": "all", "metric": "classes", "range": [0, None]},
    ],
}
BIN_EDGES = (20, 100, 1000, 5000)
NORMALIZE_SUBSET = (50, 1000)  # the CLI's default subset for --beta auto
