"""Seeded EST-library generator for the end-to-end benchmark.

Deliberately independent of the repository's simulator (src/sim): a change
to the simulator must not change the inputs the benchmark measures. The
only randomness source is the splitmix64 generator below, so the same
(workload, seed) pair yields byte-identical FASTA and truth files on every
Python version and platform.

    python3 perfbench/gen.py --workload broad --seed 1 --out DIR

writes DIR/lib.fa (one EST per record, names e0..e{n-1}) and DIR/truth.txt
(one gene id per line, in EST order).
"""

import argparse
import math
import os
import sys

MASK64 = (1 << 64) - 1
BASES = "ACGT"
COMPLEMENT = str.maketrans("ACGT", "TGCA")


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """Float in [0, 1) with 53 random bits."""
        return (self.next() >> 11) * (1.0 / (1 << 53))

    def below(self, n):
        """Integer in [0, n); n < 2^32 so the modulo bias is negligible."""
        return self.next() % n

    def bases(self, n):
        out = []
        while len(out) < n:
            v = self.next()
            for _ in range(32):
                out.append(BASES[v & 3])
                v >>= 2
        return "".join(out[:n])

    def geometric_gap(self, p):
        """Number of positions before the next event of a per-base
        Bernoulli(p) process (inverse-CDF sampling)."""
        u = self.uniform()
        return int(math.log1p(-u) / math.log1p(-p))


# Workload shapes. `ests` is the library size; `genes` follows from the
# ESTs-per-gene depth, which (with the error profile) is what each shape
# is about and must stay fixed if `ests` is rescaled.
WORKLOADS = {
    # Paper-shaped: moderate depth, low error, no families. GST build,
    # node sorting and the gst-walk stream do the work; nearly every
    # aligned pair is accepted.
    "broad": dict(ests=350, ests_per_gene=12, zipf=0.6, read_len=500,
                  read_jitter=50, tx_len=(1200, 2400), sub=0.010,
                  ins=0.001, dele=0.001, paralog_frac=0.0,
                  paralog_div=0.0, repeat_frac=0.0, repeat_len=0,
                  min_overlap=40),
    # Heavy-tail expression over very few genes: the pair-explosion worst
    # case. Union-find skips almost every promising pair; the gst lset
    # products and kmer/fm seed construction dominate.
    "deep": dict(ests=330, ests_per_gene=110, zipf=1.0, read_len=500,
                 read_jitter=50, tx_len=(1500, 2500), sub=0.010,
                 ins=0.001, dele=0.001, paralog_frac=0.0, paralog_div=0.0,
                 repeat_frac=0.0, repeat_len=0, min_overlap=40),
    # Gene families and repeats with a noisier read profile, clustered at
    # a minimum overlap above the repeat length: the only shape where most
    # aligned pairs are rejected, so alignment, the memo and bounded
    # give-up do real work.
    "noisy": dict(ests=500, ests_per_gene=12, zipf=0.6, read_len=400,
                  read_jitter=40, tx_len=(1000, 2000), sub=0.020,
                  ins=0.005, dele=0.005, paralog_frac=0.3,
                  paralog_div=0.15, repeat_frac=0.2, repeat_len=70,
                  min_overlap=100),
}


def num_genes(shape):
    return max(1, round(shape["ests"] / shape["ests_per_gene"]))


def expression_counts(n_ests, n_genes, zipf):
    """Deterministic Zipf(zipf) split of n_ests over n_genes (largest
    remainder), every gene expressed at least once. Fixing the counts keeps
    a shape's depth profile, and so its work, the same across seeds."""
    weights = [1.0 / (i + 1) ** zipf for i in range(n_genes)]
    total = sum(weights)
    spare = n_ests - n_genes
    raw = [spare * w / total for w in weights]
    counts = [1 + int(r) for r in raw]
    order = sorted(range(n_genes), key=lambda i: (-(raw[i] - int(raw[i])), i))
    for i in order[: n_ests - sum(counts)]:
        counts[i] += 1
    return counts


GOLDEN = 0.6180339887498949


def every_kth(i, frac):
    """True for a `frac` share of indices, spread evenly."""
    return int((i + 1) * frac) > int(i * frac)


def mutate(rng, seq, sub, ins, dele):
    """Applies independent per-base substitution/insertion/deletion events."""
    rate = sub + ins + dele
    if rate <= 0.0:
        return seq
    out = []
    i = 0
    n = len(seq)
    while i < n:
        gap = rng.geometric_gap(rate)
        out.append(seq[i:i + gap])
        i += gap
        if i >= n:
            break
        kind = rng.uniform() * rate
        if kind < sub:
            c = seq[i]
            out.append(BASES[(BASES.index(c) + 1 + rng.below(3)) % 4])
            i += 1
        elif kind < sub + ins:
            out.append(BASES[rng.below(4)])
        else:
            i += 1
    return "".join(out)


def substitute(rng, seq, rate):
    """Substitutions only (paralog divergence keeps the length)."""
    return mutate(rng, seq, rate, 0.0, 0.0)


def generate(workload, seed):
    """Returns (records, truth): records are (name, sequence) pairs."""
    shape = WORKLOADS[workload]
    # Distinct streams per workload, so equal seeds of different workloads
    # do not share transcripts.
    salt = sum((i + 1) * ord(c) for i, c in enumerate(workload))
    rng = SplitMix64(seed * 0x100000001B3 + salt)
    n_genes = num_genes(shape)
    lo, hi = shape["tx_len"]

    repeat = rng.bases(shape["repeat_len"]) if shape["repeat_len"] else ""
    transcripts = []
    for g in range(n_genes):
        # Which genes are paralogs or carry the repeat, and every
        # transcript length, are fixed by the gene index rather than drawn,
        # so a shape's work varies little from seed to seed.
        if g > 0 and every_kth(g, shape["paralog_frac"]):
            parent = transcripts[rng.below(g)]
            tx = substitute(rng, parent, shape["paralog_div"])
        else:
            tx = rng.bases(lo + int((hi - lo) * ((g * GOLDEN) % 1.0)))
        if repeat and every_kth(g, shape["repeat_frac"]):
            # Each copy diverges a little from the consensus repeat.
            at = rng.below(len(tx) + 1)
            tx = tx[:at] + substitute(rng, repeat, 0.02) + tx[at:]
        transcripts.append(tx)

    counts = expression_counts(shape["ests"], n_genes, shape["zipf"])
    reads = []
    for g, c in enumerate(counts):
        tx = transcripts[g]
        for _ in range(c):
            jitter = shape["read_jitter"]
            length = shape["read_len"] - jitter + rng.below(2 * jitter + 1)
            length = min(length, len(tx))
            start = rng.below(len(tx) - length + 1)
            read = mutate(rng, tx[start:start + length], shape["sub"],
                          shape["ins"], shape["dele"])
            if rng.below(2):
                read = read.translate(COMPLEMENT)[::-1]
            reads.append((g, read))

    # Library order is shuffled (Fisher-Yates) so gene blocks do not line
    # up with the contiguous rank partition.
    for i in range(len(reads) - 1, 0, -1):
        j = rng.below(i + 1)
        reads[i], reads[j] = reads[j], reads[i]
    records = [("e%d" % i, r) for i, (_, r) in enumerate(reads)]
    truth = [g for g, _ in reads]
    return records, truth


def fasta_text(records, width=70):
    lines = []
    for name, seq in records:
        lines.append(">" + name)
        for i in range(0, len(seq), width):
            lines.append(seq[i:i + width])
    return "\n".join(lines) + "\n"


def write(workload, seed, out_dir):
    records, truth = generate(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "lib.fa"), "w") as f:
        f.write(fasta_text(records))
    with open(os.path.join(out_dir, "truth.txt"), "w") as f:
        f.write("".join("%d\n" % g for g in truth))
    return records, truth


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    records, _ = write(args.workload, args.seed, args.out)
    print("wrote %d ESTs (%d bp) to %s" %
          (len(records), sum(len(s) for _, s in records), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
