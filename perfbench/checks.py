"""Correctness checks for the benchmark's workloads, independent of queencover.

Nothing here imports the package under test.  Every checker takes plain data
(tuples of (x, y) squares, integers, dicts) extracted from the program's
results and returns a list of human-readable problems; an empty list means
the result passed.  The oracles are deliberately naive: a per-square brute
attack counter, an explicit table of the eight board symmetries, canonical
patterns built from those, transcribed constants from the paper's Table 1 and
the thresholds that acceptance criterion 4 pins.
"""

from __future__ import annotations

from itertools import combinations

# Paper Table 1, stairs totals (internal + center loss) per queen count:
# (total on odd boards, total on even boards).
STAIRS_TOTALS = {
    2: (14, 14),
    3: (35, 34),
    4: (60, 60),
    5: (92, 93),
    6: (142, 142),
    7: (190, 191),
    8: (272, 272),
    9: (337, 336),
    10: (410, 410),
    11: (490, 491),
    12: (596, 596),
    13: (692, 693),
    14: (842, 842),
    15: (951, 950),
    16: (1072, 1072),
}

# Acceptance criterion 4: N1 per (q, n_lo, n_hi) and combined N2 per scan.
CRITERION4_N1 = {(2, 4, 14): 9, (3, 4, 14): 8, (4, 5, 13): 10}
CRITERION4_N2 = {(2, 6, 16): 10, (3, 6, 18): 12, (4, 8, 20): 15}

# Minimal board-independent total loss found by the loss route, per parity.
# The loss-route workload re-derives these from brute covers of its patterns;
# the windowed workload uses them through the identity
# max_cover = (4n - 3) q - min_total.
LOSS_MIN_TOTAL = {(5, "odd"): 92, (5, "even"): 93, (6, "odd"): 140, (6, "even"): 140}


def attacks(a, b) -> bool:
    """Distinct squares on a common row, column or diagonal."""
    if a == b:
        return False
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx == 0 or dy == 0 or abs(dx) == abs(dy)


def board_range(n: int) -> range:
    """Centered coordinates of B_n: floor((2-n)/2) .. floor(n/2)."""
    return range((2 - n) // 2, n // 2 + 1)


def attack_numbers(queens, n: int) -> dict:
    """Per-square attacking numbers on B_n, counted square by square."""
    r = board_range(n)
    return {(x, y): sum(1 for q in queens if attacks(q, (x, y))) for y in r for x in r}


def brute_cover(queens, n: int) -> int:
    """Squares of B_n that hold a queen or are attacked by one."""
    qs = set(queens)
    r = board_range(n)
    return sum(
        1 for y in r for x in r if (x, y) in qs or any(attacks(q, (x, y)) for q in qs)
    )


def cover_masks(n: int) -> list[int]:
    """Bit k of entry j: square k of B_n is covered by a queen on square j.

    Built from the per-square attack test; a brute subset maximum is then one
    OR and one popcount per subset.
    """
    r = board_range(n)
    squares = [(x, y) for y in r for x in r]
    out = []
    for j, s in enumerate(squares):
        m = 1 << j
        for k, t in enumerate(squares):
            if attacks(s, t):
                m |= 1 << k
        out.append(m)
    return out


def brute_max_cover(n: int, q: int) -> int:
    """Largest cover of any q-subset of B_n, by enumeration of all subsets."""
    masks = cover_masks(n)
    best = 0
    for combo in combinations(masks, q):
        m = 0
        for c in combo:
            m |= c
        best = max(best, m.bit_count())
    return best


def is_nonattacking(queens) -> bool:
    return not any(attacks(a, b) for a, b in combinations(queens, 2))


# The eight symmetries of the square about the origin, as coordinate maps.
_SYMMETRIES = (
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
)


def board_images(queens, n: int) -> set:
    """The configuration's images under the eight symmetries of B_n.

    B_n's center is (0, 0) for odd n and (1/2, 1/2) for even n; doubling the
    coordinates makes it (p, p) with p = 0 or 1 and keeps everything integral.
    """
    p = 0 if n % 2 else 1
    out = set()
    for f in _SYMMETRIES:
        img = []
        for x, y in queens:
            u, v = f(2 * x - p, 2 * y - p)
            img.append(((u + p) // 2, (v + p) // 2))
        out.add(tuple(sorted(img)))
    return out


def canonical_pattern(queens) -> tuple:
    """Least translation-normalized image under the eight symmetries."""
    best = None
    for f in _SYMMETRIES:
        img = [f(x, y) for x, y in queens]
        mx = min(x for x, _ in img)
        my = min(y for _, y in img)
        key = tuple(sorted((x - mx, y - my) for x, y in img))
        if best is None or key < best:
            best = key
    return best


def crossing_budget(even: int, odd: int) -> int:
    """Pair crossings: 12 per congruent pair, 10 per non-congruent pair."""
    return 12 * (even * (even - 1) // 2 + odd * (odd - 1) // 2) + 10 * even * odd


def parity_counts(queens) -> tuple[int, int]:
    even = sum(1 for x, y in queens if (x - y) % 2 == 0)
    return even, len(queens) - even


def overlap_from_histogram(hist: dict) -> int:
    """Sum of C(a, 2) - (a - 1) over attacked squares, from {a: squares}."""
    return sum(c * (a * (a - 1) // 2 - (a - 1)) for a, c in hist.items() if a >= 1)


def internal_from_histogram(hist: dict) -> int:
    return sum(c * (a - 1) for a, c in hist.items() if a >= 1)


def histogram(counts: dict) -> dict:
    out: dict = {}
    for a in counts.values():
        if a > 0:
            out[a] = out.get(a, 0) + 1
    return out


def stable_side(queens, odd: bool) -> int:
    """A board side of the given parity on which every pair crossing lies.

    Crossings of queens within Chebyshev radius rho of the center lie within
    radius 3 rho (a column meets a diagonal at most 3 rho away), so a board
    of radius 3 rho + 2 holds all of them with a margin.
    """
    rho = max(max(abs(x), abs(y)) for x, y in queens)
    side = 2 * (3 * rho + 2) + 1
    return side if odd else side + 1


def brute_loss(queens, odd: bool) -> int:
    """Board-independent total loss of a non-attacking pattern, by brute cover.

    The pattern is centered, then every translation within two squares of the
    centered one is covered square by square on a stable board of the given
    parity; total loss = (4n - 3) q - the best of those covers.
    """
    x0 = min(x for x, _ in queens)
    y0 = min(y for _, y in queens)
    x1 = max(x for x, _ in queens)
    y1 = max(y for _, y in queens)
    cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
    base = [(x - cx, y - cy) for x, y in queens]
    shifts = [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)]
    n = max(stable_side([(x + dx, y + dy) for x, y in base], odd) for dx, dy in shifts)
    best = max(brute_cover([(x + dx, y + dy) for x, y in base], n) for dx, dy in shifts)
    return (4 * n - 3) * len(queens) - best


def stairs_total(q: int, n: int) -> int:
    odd_total, even_total = STAIRS_TOTALS[q]
    return odd_total if n % 2 else even_total


# ---------------------------------------------------------------- workloads


def check_windowed(results: list[dict]) -> list[str]:
    """Check windowed searches.

    Each result: {"q", "n", "workers", "max_cover", "configs": [queens...],
    "orbit_sizes": [...], "representatives": [queens...]}.
    """
    problems = []
    by_key: dict = {}
    for res in results:
        q, n, m = res["q"], res["n"], res["max_cover"]
        tag = f"windowed q={q} n={n} workers={res['workers']}"
        configs = [tuple(sorted(c)) for c in res["configs"]]
        pool = set(configs)
        if not configs:
            problems.append(f"{tag}: empty optimal set")
            continue
        if len(pool) != len(configs):
            problems.append(f"{tag}: duplicate configurations")
        for c in configs:
            if len(c) != q or len(set(c)) != q:
                problems.append(f"{tag}: {c} does not hold {q} distinct queens")
                break
            if not is_nonattacking(c):
                problems.append(f"{tag}: {c} is attacking")
                break
            cov = brute_cover(c, n)
            if cov != m:
                problems.append(f"{tag}: {c} covers {cov}, max_cover says {m}")
                break
        for c in configs:
            if not board_images(c, n) <= pool:
                problems.append(f"{tag}: set is not closed under the board symmetries")
                break
        if sum(res["orbit_sizes"]) != len(configs):
            problems.append(f"{tag}: orbit sizes sum to {sum(res['orbit_sizes'])}, set has {len(configs)}")
        for rep, size in zip(res["representatives"], res["orbit_sizes"]):
            if len(board_images(rep, n)) != size:
                problems.append(f"{tag}: class of {rep} has orbit size {size}")
                break
        floor = (4 * n - 3) * q - stairs_total(q, n)
        if m < floor:
            problems.append(f"{tag}: max_cover {m} below the stairs cover {floor}")
        if q == 6:
            for c in configs:
                w = max(x for x, _ in c) - min(x for x, _ in c) + 1
                h = max(y for _, y in c) - min(y for _, y in c) + 1
                if sorted((w, h)) != [6, 7]:
                    problems.append(f"{tag}: {c} spans {w}x{h}, not 6x7")
                    break
        parity = "odd" if n % 2 else "even"
        if (q, parity) in LOSS_MIN_TOTAL:
            want = (4 * n - 3) * q - LOSS_MIN_TOTAL[(q, parity)]
            if m != want:
                problems.append(f"{tag}: max_cover {m}, loss route gives {want}")
        key = (q, n)
        if key in by_key:
            if by_key[key] != (m, pool):
                problems.append(f"{tag}: differs from the run with other workers")
        else:
            by_key[key] = (m, pool)
    return problems


def check_thresholds(reports: list[dict], q2_brute_max: int, q3_brute_max: int) -> list[str]:
    """Check threshold scans.

    Each report is a ThresholdReport as a plain dict: "kind", "q", "n_lo",
    "n_hi", "n1_candidate", "n2_combined" and "entries" with "n" and
    "max_cover".  The q=2 and q=3 maxima up to q2_brute_max / q3_brute_max
    are compared with a brute maximum over all subsets.
    """
    problems = []
    brute: dict = {}
    for rep in reports:
        kind, q, lo, hi = rep["kind"], rep["q"], rep["n_lo"], rep["n_hi"]
        tag = f"{kind} q={q} [{lo},{hi}]"
        if kind == "nonattacking":
            want = CRITERION4_N1[(q, lo, hi)]
            if rep["n1_candidate"] != want:
                problems.append(f"{tag}: N1 {rep['n1_candidate']}, criterion 4 pins {want}")
            n2 = hi + 1
        else:
            want = CRITERION4_N2[(q, lo, hi)]
            if rep["n2_combined"] != want:
                problems.append(f"{tag}: N2 {rep['n2_combined']}, criterion 4 pins {want}")
            n2 = want
        covers = {e["n"]: e["max_cover"] for e in rep["entries"]}
        if sorted(covers) != list(range(lo, hi + 1)):
            problems.append(f"{tag}: entries do not span the range")
            continue
        for n in range(lo + 1, hi + 1):
            if covers[n] < covers[n - 1]:
                problems.append(f"{tag}: max_cover falls from n={n - 1} to n={n}")
        for n in range(max(lo, n2), hi - 1):
            if covers[n + 2] - covers[n] != 8 * q:
                problems.append(
                    f"{tag}: max_cover steps by {covers[n + 2] - covers[n]} from n={n}, not {8 * q}"
                )
        limit = {2: q2_brute_max, 3: q3_brute_max}.get(q, 0)
        for n in range(lo, min(hi, limit) + 1):
            if (n, q) not in brute:
                brute[(n, q)] = brute_max_cover(n, q)
            if covers[n] != brute[(n, q)]:
                problems.append(f"{tag}: n={n} max_cover {covers[n]}, brute maximum {brute[(n, q)]}")
    return problems


def check_same(cold: list, warm: list, what: str) -> list[str]:
    """The rescan must report exactly what the cold pass reported."""
    if len(cold) != len(warm):
        return [f"{what}: rescan has {len(warm)} results, cold pass {len(cold)}"]
    return [f"{what}: rescan result {i} differs from the cold one" for i, (a, b) in enumerate(zip(cold, warm)) if a != b]


def check_loss_route(scans: list[dict], windowed: list[dict]) -> list[str]:
    """Check loss-minimal pattern scans.

    Each scan: {"q", "radius", "odd": (min_total, [pattern...]), "even": ...}.
    windowed: q=5 cover-route results {"n", "max_cover", "configs"} at one
    board of each parity, to which the q=5 scan must agree.
    """
    problems = []
    for scan in scans:
        q = scan["q"]
        for parity in ("odd", "even"):
            tag = f"loss route q={q} r={scan['radius']} {parity}"
            total, patterns = scan[parity]
            if not patterns:
                problems.append(f"{tag}: no patterns")
                continue
            want = STAIRS_TOTALS[q][0 if parity == "odd" else 1]
            if total > want:
                problems.append(f"{tag}: min_total {total} above the stairs total {want}")
            if (q, parity) in LOSS_MIN_TOTAL and total != LOSS_MIN_TOTAL[(q, parity)]:
                problems.append(f"{tag}: min_total {total}, expected {LOSS_MIN_TOTAL[(q, parity)]}")
            for p in patterns:
                if len(set(p)) != q or not is_nonattacking(p):
                    problems.append(f"{tag}: {p} is not a non-attacking {q}-pattern")
                    break
                loss = brute_loss(p, parity == "odd")
                if loss != total:
                    problems.append(f"{tag}: {p} has brute loss {loss}, min_total says {total}")
                    break
    five = [s for s in scans if s["q"] == 5]
    for res in windowed:
        n = res["n"]
        parity = "odd" if n % 2 else "even"
        tag = f"loss route q=5 vs windowed n={n}"
        if not five:
            problems.append(f"{tag}: no q=5 scan")
            continue
        total, patterns = five[0][parity]
        if (4 * n - 3) * 5 - res["max_cover"] != total:
            problems.append(f"{tag}: cover route total {(4 * n - 3) * 5 - res['max_cover']}, loss route {total}")
        cover_patterns = {canonical_pattern(c) for c in res["configs"]}
        loss_patterns = {canonical_pattern(p) for p in patterns}
        if cover_patterns != loss_patterns:
            problems.append(f"{tag}: pattern sets differ")
    return problems


def check_evaluations(evals: list[dict], sample: list[int]) -> list[str]:
    """Check configuration evaluations.

    Each eval: {"n", "queens", "cover", "hist", "nonattacking", "stable",
    "total", "central", "internal_stable" (or None), "predicted" (or None)}.
    The entries indexed by sample are recomputed with the brute oracle.
    """
    problems = []
    for i, ev in enumerate(evals):
        n, queens = ev["n"], ev["queens"]
        q = len(queens)
        tag = f"eval #{i} n={n} {queens}"
        if ev["nonattacking"] != is_nonattacking(queens):
            problems.append(f"{tag}: non-attacking flag is wrong")
        if ev["stable"]:
            want = (4 * n - 3) * q - ev["total"]
            if ev["cover"] != want:
                problems.append(f"{tag}: cover {ev['cover']} on a stable board, identity gives {want}")
            if ev["predicted"] != ev["cover"]:
                problems.append(f"{tag}: predicted cover {ev['predicted']}, cover {ev['cover']}")
            e, o = parity_counts(queens)
            budget_rest = crossing_budget(e, o) - overlap_from_histogram(ev["hist"])
            if ev["internal_stable"] != budget_rest:
                problems.append(f"{tag}: internal {ev['internal_stable']}, budget - overlap {budget_rest}")
        if ev["nonattacking"] and ev["internal_stable"] is None:
            problems.append(f"{tag}: non-attacking but no stable internal loss")
        if len(problems) > 20:
            break
    for i in sample:
        ev = evals[i]
        n, queens = ev["n"], ev["queens"]
        tag = f"eval #{i} n={n} {queens}"
        counts = attack_numbers(queens, n)
        occupied = set(queens)
        cov = sum(1 for s, a in counts.items() if a > 0 or s in occupied)
        if cov != ev["cover"]:
            problems.append(f"{tag}: cover {ev['cover']}, brute {cov}")
        if histogram(counts) != ev["hist"]:
            problems.append(f"{tag}: attack histogram differs from brute")
        if ev["nonattacking"] and len(queens) > 1:
            x0 = min(x for x, _ in queens)
            y0 = min(y for _, y in queens)
            x1 = max(x for x, _ in queens)
            y1 = max(y for _, y in queens)
            centered = [(x - (x0 + x1) // 2, y - (y0 + y1) // 2) for x, y in queens]
            big = histogram(attack_numbers(centered, stable_side(centered, True)))
            e, o = parity_counts(queens)
            want = crossing_budget(e, o) - overlap_from_histogram(big)
            if internal_from_histogram(big) != want or ev["internal_stable"] != want:
                problems.append(f"{tag}: internal {ev['internal_stable']}, brute budget - overlap {want}")
    return problems
