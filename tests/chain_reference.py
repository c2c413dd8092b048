"""The list form of the divisor-chain DP, kept as a test-only reference.

``qseries._divisor_chain_rows`` builds the same rows as one packed product;
this is the slice-by-slice form it replaced, with no packing, no slot widths
and no masks, so the two share nothing but the definition of the rows.
"""


def list_chain_rows(parts: tuple, order: int, odd: bool) -> list:
    """rows[j] = the tail g(k_{r-j+1}, ..., k_r) times prod (k_i - 1)!, rows[0] = 1.

    Part sizes are taken in increasing order.  Size m may fill slot j (the
    j-th smallest size of a chain, exponent k_{r-j+1} - 1) by adding
    ``rows[j-1]`` times sum_n n^(k_{r-j+1} - 1) q^(mn); going through the
    slots downwards uses each size at most once per chain.
    """
    r = len(parts)
    exps = (None,) + tuple([k - 1 for k in reversed(parts)])
    rows = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(r)]
    step = 2 if odd else 1
    for i, m in enumerate(range(1, order + 1, step)):
        # the first i sizes fill at most i slots, so slot i + 1 is the highest reachable
        for j in range(min(r, i + 1), 0, -1):
            prev, cur, e = rows[j - 1], rows[j], exps[j]
            # prev starts at m = 1, 2, ..., j-1 (or 1, 3, ..., 2j-3), all n = 1
            lo = (j - 1) ** 2 if odd else (j - 1) * j // 2
            tail = prev[lo:]
            for n in range(1, (order - lo) // m + 1):
                s = lo + m * n
                w = n**e
                cur[s:] = [c + w * p for c, p in zip(cur[s:], tail)]
    return rows


def dominating_coefficients(top_exp: int, order: int) -> list:
    """c_E(t) = [q^t] prod_m (1 + sum_n n^E q^(mn)) for t = 0..order, by lists."""
    c = [1] + [0] * order
    for m in range(1, order + 1):
        old = c[:]
        for n in range(1, order // m + 1):
            w = n**top_exp
            c[m * n:] = [a + w * b for a, b in zip(c[m * n:], old)]
    return c
