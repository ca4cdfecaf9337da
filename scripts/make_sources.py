"""Regenerate the bundled source payloads under configs/.

Writes the two-qubit state-discrimination example (custom matrices), the
four-qubit two-coordinate parity truth table, and the five-qubit planted
junta truth table, plus a small degree-set file for ``qfl cover``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qfl.checks import bell_states, parity_truth_table  # noqa: E402
from qfl.simulator import save_matrix  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def main() -> None:
    CONFIG_DIR.mkdir(exist_ok=True)
    rho0, rho1 = bell_states()
    save_matrix(CONFIG_DIR / "bell_rho0.mat", rho0)
    save_matrix(CONFIG_DIR / "bell_rho1.mat", rho1)
    (CONFIG_DIR / "bell.src").write_text(
        "# two entangled states, equal priors; optimal loss 1/4\n"
        "kind = custom\n"
        "d = 2\n"
        "p0 = 0.5\n"
        "rho0 = bell_rho0.mat\n"
        "rho1 = bell_rho1.mat\n",
        encoding="utf-8",
    )
    (CONFIG_DIR / "parity_d4.src").write_text(
        "# labels = parity of coordinates 1 and 2 (0-based)\n"
        "kind = classical\n"
        "d = 4\n"
        f"truth_table = {parity_truth_table(4, (1, 2))}\n",
        encoding="utf-8",
    )
    (CONFIG_DIR / "junta_d5.src").write_text(
        "# planted two-coordinate junta: parity of coordinates 1 and 3 (0-based)\n"
        "kind = classical\n"
        "d = 5\n"
        f"truth_table = {parity_truth_table(5, (1, 3))}\n",
        encoding="utf-8",
    )
    (CONFIG_DIR / "weight1_d2.degreeset").write_text(
        "# all weight-1 strings on two qubits\n"
        "10, 20, 30\n"
        "01, 02, 03\n",
        encoding="utf-8",
    )
    print(f"wrote payloads under {CONFIG_DIR}")


if __name__ == "__main__":
    main()
