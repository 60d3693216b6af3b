"""Reference computations in plain numpy for checking the package's outputs.

Nothing here imports gwgraphon: each function restates a definition
directly, so a fault shared by the package and its own helpers cannot hide
behind an agreement between the two.
"""

import numpy as np

# The four ground-truth families the workloads use, written out again.
FAMILIES = {
    "abs_diff": lambda x, y: np.abs(x - y),
    "one_minus_abs_diff": lambda x, y: 1.0 - np.abs(x - y),
    "xy": lambda x, y: x * y,
    "exp07": lambda x, y: np.exp(-(x ** 0.7 + y ** 0.7)),
}


def truth_grid(family, resolution):
    """The family evaluated at the R x R cell midpoints ((i+0.5)/R, (j+0.5)/R)."""
    mids = (np.arange(resolution) + 0.5) / resolution
    return FAMILIES[family](mids[:, None], mids[None, :])


def gw_objective(a, w, plan):
    """The four-index GW objective sum_{i,j,k,l} (a_ik - w_jl)^2 T_ij T_kl.

    One row i of the first space is summed at a time, so memory stays at
    N * K * K floats however large the problem.
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    plan = np.asarray(plan, dtype=float)
    total = 0.0
    for i in range(a.shape[0]):
        # diff[k, j, l] = a_ik - w_jl
        diff = a[i][:, None, None] - w[None, :, :]
        total += np.einsum("j,kjl,kl->", plan[i], diff * diff, plan)
    return total


def block_average(grid, blocks):
    """Average an R x R grid onto blocks x blocks equal squares, symmetrized."""
    r = grid.shape[0]
    side = r // blocks
    avg = grid.reshape(blocks, side, blocks, side).mean(axis=(1, 3))
    return 0.5 * (avg + avg.T)


def aligned_block_objective(grid, values):
    """GW objective of the coupling that sends pixel i of an R-pixel uniform
    space to block floor(i*K/R) of a K-block uniform step function.

    That coupling has one entry 1/R per row, so the four-index sum reduces
    to the mean over pixel pairs of (grid_ij - values_{b(i) b(j)})^2.
    The GW distance can be no larger than the square root of this value.
    """
    up = upsample(values, grid.shape[0])
    diff = grid - up
    return float(np.mean(diff * diff))


def upsample(values, resolution):
    """Pixel (i, j) copies block (floor(i*K/R), floor(j*K/R))."""
    k = values.shape[0]
    idx = (np.arange(resolution) * k) // resolution
    return values[np.ix_(idx, idx)]


def pixel_mse(values, family, resolution):
    """Mean squared difference between the upsampled values and the truth."""
    diff = upsample(values, resolution) - truth_grid(family, resolution)
    return float(np.mean(diff * diff))


def parse_step_function(text):
    """Parse the step-function text format: "K <k>", one measure line, then
    K rows of K values. Returns (values, measure)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or len(lines[0]) != 2 or lines[0][0] != "K":
        raise ValueError("step-function text lacks the 'K <k>' header")
    k = int(lines[0][1])
    if len(lines) != k + 2 or any(len(row) != k for row in lines[1:]):
        raise ValueError("step-function text is not %d rows of %d values" % (k + 1, k))
    measure = np.array([float(v) for v in lines[1]])
    values = np.array([[float(v) for v in row] for row in lines[2:]])
    return values, measure


def format_step_function(values, measure):
    """The step-function text format at 17 significant digits."""
    out = ["K %d" % len(measure), " ".join("%.17g" % v for v in measure)]
    out.extend(" ".join("%.17g" % v for v in row) for row in values)
    return "\n".join(out) + "\n"


def parse_pgm(data):
    """Parse a binary 8-bit PGM ("P5") image into a rows x cols uint8 array."""
    fields = []
    pos = 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    pos += 1  # exactly one whitespace byte separates the header from pixels
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError("not an 8-bit binary PGM")
    cols, rows = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(data[pos:], dtype=np.uint8)
    if pixels.size != rows * cols:
        raise ValueError("PGM holds %d pixels, header says %d" % (pixels.size, rows * cols))
    return pixels.reshape(rows, cols)


def heatmap_pixels(values, side):
    """Grayscale bytes of the values upsampled to side x side: 255 minus
    255*v rounded half away from zero, so dense regions are dark."""
    up = upsample(values, side)
    return (255 - np.floor(255.0 * up + 0.5)).astype(np.uint8)


def two_cluster_agreement(labels, truth):
    """Share of positions where two 0/1 labelings agree, under the better
    of the two ways to name the clusters."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    same = float(np.mean(labels == truth))
    return max(same, float(np.mean(labels == 1 - truth)))
