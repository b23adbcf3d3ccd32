//! Synthetic workload builders for the bench binaries.

use psens_datasets::AdultGenerator;
use psens_microdata::Table;

/// A synthetic Adult table of `n` rows with a seed derived from `n` (so
/// benches at different scales are independent but reproducible).
pub fn adult(n: usize) -> Table {
    AdultGenerator::new(0xBE7C_0000 ^ n as u64).generate(n)
}

/// The wide 8-QI synthetic Adult table (pairs with
/// `psens_datasets::hierarchies::adult_wide_qi_space`), seed derived from
/// `n` like [`adult`].
pub fn adult_wide(n: usize) -> Table {
    AdultGenerator::new(0xBE7C_0000 ^ n as u64).generate_wide(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adult_workload_sizes() {
        assert_eq!(adult(123).n_rows(), 123);
        assert_eq!(adult_wide(45).n_rows(), 45);
    }
}
