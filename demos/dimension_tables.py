"""Dimension tables for all six bigraded spaces.

Prints the exact dimensions over a small (weight, depth) window for each
space.  Adjust the ranges below for larger windows.

Run:  python3 demos/dimension_tables.py
"""

from moulde.spaces import dimension_table, solve_vkrv

N_RANGE = range(3, 9)
R_RANGE = range(1, 4)


def main():
    for space in ("lkv", "ls", "gr_krv", "krv_ell", "ds_ell"):
        table = dimension_table(space, N_RANGE, R_RANGE)
        print(table.to_text())
    # vkrv is graded by weight only
    print("vkrv dimensions")
    print("n    " + " ".join("%3d" % n for n in N_RANGE))
    print("dim  " + " ".join("%3d" % solve_vkrv(n).dim for n in N_RANGE))


if __name__ == "__main__":
    main()
