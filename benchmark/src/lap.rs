//! The lap driver: repeats identical, seed-determined work until the
//! measurement time is used up. Every lap adds one sample of every timed
//! operation.

use std::time::Instant;

/// Runs `lap(i)` for `i = 0, 1, ...` until `seconds` have passed, but at
/// least `min_laps` times. A further lap starts only while half of an
/// average lap still fits, so the measured time straddles `seconds` instead
/// of always overshooting it. The first error ends the run.
pub fn run_laps<L, E>(
    seconds: f64,
    min_laps: usize,
    lap: impl FnMut(usize) -> Result<L, E>,
) -> Result<Vec<L>, E> {
    let start = Instant::now();
    run_laps_on(seconds, min_laps, || start.elapsed().as_secs_f64(), lap)
}

fn run_laps_on<L, E>(
    seconds: f64,
    min_laps: usize,
    now: impl Fn() -> f64,
    mut lap: impl FnMut(usize) -> Result<L, E>,
) -> Result<Vec<L>, E> {
    let mut laps = Vec::new();
    loop {
        let elapsed = now();
        let mean_lap = elapsed / laps.len().max(1) as f64;
        if laps.len() >= min_laps.max(1) && elapsed + 0.5 * mean_lap >= seconds {
            return Ok(laps);
        }
        laps.push(lap(laps.len())?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances by `step` per lap.
    fn drive(seconds: f64, min_laps: usize, step: f64) -> Vec<usize> {
        let clock = Cell::new(0.0);
        run_laps_on::<usize, ()>(
            seconds,
            min_laps,
            || clock.get(),
            |i| {
                clock.set(clock.get() + step);
                Ok(i)
            },
        )
        .unwrap()
    }

    #[test]
    fn laps_fill_the_measurement_time() {
        // 2 s laps in 20 s: ten laps, numbered in order.
        assert_eq!(drive(20.0, 1, 2.0), (0..10).collect::<Vec<_>>());
        // 3 s laps: after 6 laps (18 s) half a lap (1.5 s) still fits
        // before 20 s, after 7 laps (21 s) it does not.
        assert_eq!(drive(20.0, 1, 3.0).len(), 7);
        // 2.2 s laps: after 9 laps (19.8 s) stop; 8 laps (17.6 s) go on.
        assert_eq!(drive(20.0, 1, 2.2).len(), 9);
    }

    #[test]
    fn the_minimum_lap_count_wins_over_the_clock() {
        assert_eq!(drive(1.0, 3, 5.0).len(), 3);
        assert_eq!(drive(0.0, 0, 1.0).len(), 1);
    }

    #[test]
    fn the_first_error_ends_the_run() {
        let result: Result<Vec<u32>, &str> = run_laps_on(
            10.0,
            1,
            || 0.0,
            |i| if i == 2 { Err("boom") } else { Ok(i as u32) },
        );
        assert_eq!(result, Err("boom"));
    }
}
