"""From shared randomness to a fixed code, by exhaustive search.

The shared-randomness protocols pre-share 2^R correlated copies of a
classical register.  Averaging over the randomness, some fixed value of the
shared string must do at least as well as the average — so for small
alphabets we can search every string and pick the best fixed code.  The
decoder's error on a string depends only on its type (its letter counts),
so the search decodes one string per type.

This demo runs the search for a noiseless bit channel with a perfectly
correlated bit register.  At R = 1 the two messages can pick the two distinct
input symbols and the fixed code is perfect, strictly better than the
randomized average.  At R = 2 four messages share two symbols, so some pair
must collide; the best fixed code still beats the randomized average.
"""

import numpy as np

from oneshot_qcap import derandomize, identity_channel
from oneshot_qcap.linalg import DensityOp, SystemLayout


def correlated_bit():
    mat = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    return DensityOp(mat, SystemLayout([("A", 2), ("U", 2)]))


def main():
    ch = identity_channel(2, "A", "B")
    psi = correlated_bit()
    for rate in (1, 2):
        code = derandomize("p2p", ch, psi, rate, 0.1, 0.6)
        print(f"R = {rate}:")
        print(f"  best fixed string   : {code.strings}")
        print(f"  fixed-code error    : {code.error:.6f}")
        print(f"  randomized average  : {code.randomized_error:.6f}")
        assert code.error <= code.randomized_error + 1e-12
        print()
    print("The fixed code never does worse than the randomized average --")
    print("that inequality is the whole derandomization argument.")


if __name__ == "__main__":
    main()
