"""The magnetometer transfer curve: laser output vs magnetic field.

Sweeps a bias field through zero with the pump parked at the operating
point and prints the CSV table; the dark notch at zero field and the
bright shoulders are the device's calibration curve.
"""

from ltmag import (SweepAxis, SweepSpec, find_operating_point, preset,
                   run_sweep, with_pump)


def main():
    cfg = preset("baseline")
    cfg = with_pump(cfg, find_operating_point(cfg))
    spec = SweepSpec(
        axis1=SweepAxis("b_field", -1e-3, 1e-3, 41),
        outputs=("n", "P_out", "branch"))
    table = run_sweep(cfg, spec)
    print(table.to_csv(), end="")


if __name__ == "__main__":
    main()
