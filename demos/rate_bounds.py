"""Converse and achievable one-shot rates, side by side.

For a fixed input state, the converse says no code can beat the
hypothesis-testing divergence (up to the error budget), while the coding
theorem guarantees the same divergence minus a log(1/delta)-type penalty.
This demo sweeps the error budget for a depolarizing qubit channel with a
Bell-state input and prints the sandwich

    achievable(eps, delta)  <=  converse(eps + delta)

together with the infeasible region where the penalty eats the whole
divergence (a one-shot effect: with a single channel use and a small error
budget there may be no nontrivial code at all).
"""

from oneshot_qcap import achievable_rate, bell_ket, converse_value
from oneshot_qcap.channels import depolarizing


def main():
    bell = bell_ket("A", "B'").density()
    # One channel use leaves little room: a generous delta keeps the
    # log2(1/delta) penalty from consuming the whole divergence.
    delta = 0.45
    print(f"depolarizing channel, Bell input, delta = {delta}")
    print(f"  {'p':>4} {'eps':>5} {'achievable':>11} {'converse':>9} "
          f"{'feasible':>8}")
    for p in (0.0, 0.3, 0.6):
        ch = depolarizing(p, 2, "A", "B")
        for eps in (0.05, 0.15, 0.3):
            ach = achievable_rate("p2p_ea", ch, bell, eps, delta)
            con = converse_value("p2p_ea", ch, bell, eps + delta)
            tag = "yes" if not ach.infeasible else "no"
            print(f"  {p:>4} {eps:>5} {ach.value:>11.4f} {con.value:>9.4f} "
                  f"{tag:>8}")
            assert ach.value <= con.value + 1e-9
    tight = achievable_rate("p2p_ea", depolarizing(0.0, 2, "A", "B"), bell,
                            0.05, 0.05)
    print(f"\nWith a tight budget (eps = 0.05, delta = 0.05) the same"
          f"\nnoiseless channel reports {tight.value:.4f} bits, flagged"
          f" infeasible = {tight.infeasible}:"
          "\nnegative rates are reported as-is rather than clamped -- the"
          "\nguarantee is vacuous at those parameters, not the channel.")


if __name__ == "__main__":
    main()
