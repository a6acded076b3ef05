//! Deterministic TPC-H data generation.

use adamant_storage::column::Column;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::{Catalog, Table};
use adamant_storage::rng::Rng;

/// The five market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
/// The five order priorities, in output order.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Return flags (`l_returnflag`).
pub const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];
/// Ship modes (`l_shipmode`).
pub const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
/// Part types (`p_type`); Q14 matches the `PROMO` prefix.
pub const PART_TYPES: [&str; 9] = [
    "PROMO BURNISHED TIN",
    "PROMO PLATED COPPER",
    "PROMO ANODIZED STEEL",
    "STANDARD BURNISHED TIN",
    "STANDARD PLATED COPPER",
    "STANDARD ANODIZED STEEL",
    "ECONOMY BURNISHED TIN",
    "ECONOMY PLATED COPPER",
    "ECONOMY ANODIZED STEEL",
];

/// Rows per scale-factor-1 table (TPC-H spec §4.2.5).
pub mod base_rows {
    /// `customer` rows at SF 1.
    pub const CUSTOMER: usize = 150_000;
    /// `orders` rows at SF 1.
    pub const ORDERS: usize = 1_500_000;
    /// Average `lineitem` rows at SF 1 (orders × ~4).
    pub const LINEITEM: usize = 6_000_000;
    /// `part` rows at SF 1.
    pub const PART: usize = 200_000;
    /// `supplier` rows at SF 1.
    pub const SUPPLIER: usize = 10_000;
    /// `partsupp` rows at SF 1.
    pub const PARTSUPP: usize = 800_000;
    /// `nation` rows (fixed).
    pub const NATION: usize = 25;
    /// `region` rows (fixed).
    pub const REGION: usize = 5;
}

/// Deterministic TPC-H generator.
///
/// All randomness derives from the seed, so a `(sf, seed)` pair always
/// produces identical data — experiments are exactly reproducible.
#[derive(Clone, Debug)]
pub struct TpchGenerator {
    /// Scale factor (may be fractional for laptop-scale runs).
    pub scale_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpchGenerator {
    /// Creates a generator.
    pub fn new(scale_factor: f64, seed: u64) -> Self {
        assert!(scale_factor > 0.0, "scale factor must be positive");
        TpchGenerator { scale_factor, seed }
    }

    fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale_factor) as usize).max(1)
    }

    /// Generates all eight tables into a catalog.
    pub fn generate(&self) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register(self.region());
        catalog.register(self.nation());
        catalog.register(self.supplier());
        catalog.register(self.customer());
        catalog.register(self.part());
        catalog.register(self.partsupp());
        let (orders, lineitem) = self.orders_and_lineitem();
        catalog.register(orders);
        catalog.register(lineitem);
        catalog
    }

    fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// The `region` table.
    pub fn region(&self) -> Table {
        let names = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
        Table::new(
            "region",
            vec![
                Column::from_i64("r_regionkey", (0..5).collect()),
                Column::from_strings("r_name", &names),
            ],
        )
        .expect("equal lengths")
    }

    /// The `nation` table.
    pub fn nation(&self) -> Table {
        let mut rng = self.rng(1);
        let n = base_rows::NATION;
        let keys: Vec<i64> = (0..n as i64).collect();
        let names: Vec<String> = (0..n).map(|i| format!("NATION_{i:02}")).collect();
        let regions: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..5)).collect();
        Table::new(
            "nation",
            vec![
                Column::from_i64("n_nationkey", keys),
                Column::from_strings("n_name", &names),
                Column::from_i64("n_regionkey", regions),
            ],
        )
        .expect("equal lengths")
    }

    /// The `supplier` table.
    pub fn supplier(&self) -> Table {
        let mut rng = self.rng(2);
        let n = self.scaled(base_rows::SUPPLIER);
        Table::new(
            "supplier",
            vec![
                Column::from_i64("s_suppkey", (1..=n as i64).collect()),
                Column::from_i64(
                    "s_nationkey",
                    (0..n).map(|_| rng.gen_range(0i64..25)).collect(),
                ),
                Column::from_i64(
                    "s_acctbal",
                    (0..n).map(|_| rng.gen_range(-99999i64..999999)).collect(),
                ),
            ],
        )
        .expect("equal lengths")
    }

    /// The `customer` table.
    pub fn customer(&self) -> Table {
        let mut rng = self.rng(3);
        let n = self.scaled(base_rows::CUSTOMER);
        let segments: Vec<&str> = (0..n)
            .map(|_| SEGMENTS[rng.gen_range(0..SEGMENTS.len())])
            .collect();
        Table::new(
            "customer",
            vec![
                Column::from_i64("c_custkey", (1..=n as i64).collect()),
                Column::from_strings("c_mktsegment", &segments),
                Column::from_i64(
                    "c_nationkey",
                    (0..n).map(|_| rng.gen_range(0i64..25)).collect(),
                ),
                Column::from_i64(
                    "c_acctbal",
                    (0..n).map(|_| rng.gen_range(-99999i64..999999)).collect(),
                ),
            ],
        )
        .expect("equal lengths")
    }

    /// The `part` table.
    pub fn part(&self) -> Table {
        let mut rng = self.rng(4);
        let n = self.scaled(base_rows::PART);
        let brands: Vec<String> = (0..n)
            .map(|_| format!("Brand#{}{}", rng.gen_range(1..6), rng.gen_range(1..6)))
            .collect();
        let types: Vec<&str> = (0..n)
            .map(|_| PART_TYPES[rng.gen_range(0..PART_TYPES.len())])
            .collect();
        Table::new(
            "part",
            vec![
                Column::from_i64("p_partkey", (1..=n as i64).collect()),
                Column::from_strings("p_brand", &brands),
                Column::from_strings("p_type", &types),
                Column::from_i64("p_size", (0..n).map(|_| rng.gen_range(1i64..51)).collect()),
                Column::from_i64(
                    "p_retailprice",
                    (0..n).map(|_| rng.gen_range(90_000i64..200_000)).collect(),
                ),
            ],
        )
        .expect("equal lengths")
    }

    /// The `partsupp` table.
    pub fn partsupp(&self) -> Table {
        let mut rng = self.rng(5);
        let parts = self.scaled(base_rows::PART) as i64;
        let supps = self.scaled(base_rows::SUPPLIER) as i64;
        let n = self.scaled(base_rows::PARTSUPP);
        Table::new(
            "partsupp",
            vec![
                Column::from_i64(
                    "ps_partkey",
                    (0..n).map(|i| (i as i64 / 4) % parts + 1).collect(),
                ),
                Column::from_i64(
                    "ps_suppkey",
                    (0..n).map(|_| rng.gen_range(1..=supps)).collect(),
                ),
                Column::from_i64(
                    "ps_availqty",
                    (0..n).map(|_| rng.gen_range(1i64..10_000)).collect(),
                ),
                Column::from_i64(
                    "ps_supplycost",
                    (0..n).map(|_| rng.gen_range(100i64..100_000)).collect(),
                ),
            ],
        )
        .expect("equal lengths")
    }

    /// The `orders` and `lineitem` tables (generated together to keep the
    /// 1:1–7 key relationship and date dependencies).
    pub fn orders_and_lineitem(&self) -> (Table, Table) {
        let mut rng = self.rng(6);
        let n_orders = self.scaled(base_rows::ORDERS);
        let n_customers = self.scaled(base_rows::CUSTOMER) as i64;

        let start = date_to_days(1992, 1, 1);
        let end = date_to_days(1998, 8, 2);
        // `l_linestatus` split date (spec: shipped before/after 1995-06-17).
        let status_split = date_to_days(1995, 6, 17);

        let mut o_orderkey = Vec::with_capacity(n_orders);
        let mut o_custkey = Vec::with_capacity(n_orders);
        let mut o_orderdate = Vec::with_capacity(n_orders);
        let mut o_orderpriority: Vec<&str> = Vec::with_capacity(n_orders);
        let mut o_shippriority = Vec::with_capacity(n_orders);
        let mut o_totalprice = Vec::with_capacity(n_orders);

        let est_lines = n_orders * 4;
        let mut l_orderkey = Vec::with_capacity(est_lines);
        let mut l_partkey = Vec::with_capacity(est_lines);
        let mut l_suppkey = Vec::with_capacity(est_lines);
        let mut l_linenumber = Vec::with_capacity(est_lines);
        let mut l_quantity = Vec::with_capacity(est_lines);
        let mut l_extendedprice = Vec::with_capacity(est_lines);
        let mut l_discount = Vec::with_capacity(est_lines);
        let mut l_tax = Vec::with_capacity(est_lines);
        let mut l_returnflag: Vec<&str> = Vec::with_capacity(est_lines);
        let mut l_shipmode: Vec<&str> = Vec::with_capacity(est_lines);
        let mut l_linestatus: Vec<&str> = Vec::with_capacity(est_lines);
        let mut l_shipdate = Vec::with_capacity(est_lines);
        let mut l_commitdate = Vec::with_capacity(est_lines);
        let mut l_receiptdate = Vec::with_capacity(est_lines);

        let parts = self.scaled(base_rows::PART) as i64;
        let supps = self.scaled(base_rows::SUPPLIER) as i64;

        for i in 0..n_orders {
            // TPC-H order keys are sparse; a simple stride keeps that shape.
            let okey = (i as i64) * 4 + 1;
            let odate = rng.gen_range(start..=end);
            o_orderkey.push(okey);
            o_custkey.push(rng.gen_range(1..=n_customers));
            o_orderdate.push(odate);
            o_orderpriority.push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]);
            o_shippriority.push(0i64);

            let lines = rng.gen_range(1..=7);
            let mut total = 0i64;
            for ln in 1..=lines {
                let qty = rng.gen_range(1..=50) as i64;
                // extendedprice ~ qty * unit price (cents).
                let unit = rng.gen_range(90_000..200_000) as i64 / 100;
                let price = qty * unit;
                let disc = rng.gen_range(0..=10) as i64; // percent
                let tax = rng.gen_range(0..=8) as i64; // percent
                let ship = odate + rng.gen_range(1..=121);
                let commit = odate + rng.gen_range(30..=90);
                let receipt = ship + rng.gen_range(1..=30);
                let status = if ship > status_split { "O" } else { "F" };
                // Returned lines only among early-shipped ones (spec-like).
                let rflag = if status == "O" {
                    "N"
                } else {
                    RETURN_FLAGS[rng.gen_range(0usize..2) * 2] // "A" or "R"
                };
                l_orderkey.push(okey);
                l_partkey.push(rng.gen_range(1..=parts));
                l_suppkey.push(rng.gen_range(1..=supps));
                l_linenumber.push(ln as i64);
                l_quantity.push(qty);
                l_extendedprice.push(price);
                l_discount.push(disc);
                l_tax.push(tax);
                l_returnflag.push(rflag);
                l_shipmode.push(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]);
                l_linestatus.push(status);
                l_shipdate.push(ship);
                l_commitdate.push(commit);
                l_receiptdate.push(receipt);
                total += price;
            }
            o_totalprice.push(total);
        }

        let orders = Table::new(
            "orders",
            vec![
                Column::from_i64("o_orderkey", o_orderkey),
                Column::from_i64("o_custkey", o_custkey),
                Column::from_dates("o_orderdate", o_orderdate),
                Column::from_strings("o_orderpriority", &o_orderpriority),
                Column::from_i64("o_shippriority", o_shippriority),
                Column::from_i64("o_totalprice", o_totalprice),
            ],
        )
        .expect("equal lengths");

        let lineitem = Table::new(
            "lineitem",
            vec![
                Column::from_i64("l_orderkey", l_orderkey),
                Column::from_i64("l_partkey", l_partkey),
                Column::from_i64("l_suppkey", l_suppkey),
                Column::from_i64("l_linenumber", l_linenumber),
                Column::from_i64("l_quantity", l_quantity),
                Column::from_i64("l_extendedprice", l_extendedprice),
                Column::from_i64("l_discount", l_discount),
                Column::from_i64("l_tax", l_tax),
                Column::from_strings("l_returnflag", &l_returnflag),
                Column::from_strings("l_linestatus", &l_linestatus),
                Column::from_strings("l_shipmode", &l_shipmode),
                Column::from_dates("l_shipdate", l_shipdate),
                Column::from_dates("l_commitdate", l_commitdate),
                Column::from_dates("l_receiptdate", l_receiptdate),
            ],
        )
        .expect("equal lengths");

        (orders, lineitem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_storage::datatype::format_date;

    fn small() -> Catalog {
        TpchGenerator::new(0.001, 42).generate()
    }

    #[test]
    fn all_tables_present() {
        let cat = small();
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert!(cat.table(t).is_ok(), "missing {t}");
        }
    }

    #[test]
    fn row_counts_scale() {
        let cat = small();
        assert_eq!(cat.table("customer").unwrap().row_count(), 150);
        assert_eq!(cat.table("orders").unwrap().row_count(), 1500);
        assert_eq!(cat.table("supplier").unwrap().row_count(), 10);
        assert_eq!(cat.table("nation").unwrap().row_count(), 25);
        assert_eq!(cat.table("region").unwrap().row_count(), 5);
        let li = cat.table("lineitem").unwrap().row_count();
        assert!((1500..=1500 * 7).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn determinism() {
        let a = TpchGenerator::new(0.001, 7).generate();
        let b = TpchGenerator::new(0.001, 7).generate();
        assert_eq!(
            a.table("lineitem")
                .unwrap()
                .column("l_extendedprice")
                .unwrap(),
            b.table("lineitem")
                .unwrap()
                .column("l_extendedprice")
                .unwrap()
        );
        let c = TpchGenerator::new(0.001, 8).generate();
        assert_ne!(
            a.table("lineitem")
                .unwrap()
                .column("l_extendedprice")
                .unwrap(),
            c.table("lineitem")
                .unwrap()
                .column("l_extendedprice")
                .unwrap()
        );
    }

    #[test]
    fn foreign_keys_resolve() {
        let cat = small();
        let orders = cat.table("orders").unwrap();
        let customers = cat.table("customer").unwrap().row_count() as i64;
        for v in orders.column("o_custkey").unwrap().to_i64_vec() {
            assert!((1..=customers).contains(&v));
        }
        // Every lineitem order key exists in orders.
        let okeys: std::collections::HashSet<i64> = orders
            .column("o_orderkey")
            .unwrap()
            .to_i64_vec()
            .into_iter()
            .collect();
        let li = cat.table("lineitem").unwrap();
        for v in li.column("l_orderkey").unwrap().to_i64_vec() {
            assert!(okeys.contains(&v));
        }
    }

    #[test]
    fn date_ranges_valid() {
        let cat = small();
        let li = cat.table("lineitem").unwrap();
        let ship = li.column("l_shipdate").unwrap().to_i64_vec();
        let receipt = li.column("l_receiptdate").unwrap().to_i64_vec();
        for (s, r) in ship.iter().zip(&receipt) {
            assert!(r > s, "receipt after ship");
        }
        let lo = date_to_days(1992, 1, 1) as i64;
        let hi = date_to_days(1999, 1, 1) as i64;
        for s in &ship {
            assert!(*s >= lo && *s <= hi, "date {}", format_date(*s as i32));
        }
    }

    #[test]
    fn value_domains() {
        let cat = small();
        let li = cat.table("lineitem").unwrap();
        for d in li.column("l_discount").unwrap().to_i64_vec() {
            assert!((0..=10).contains(&d));
        }
        for t in li.column("l_tax").unwrap().to_i64_vec() {
            assert!((0..=8).contains(&t));
        }
        for q in li.column("l_quantity").unwrap().to_i64_vec() {
            assert!((1..=50).contains(&q));
        }
        let seg = cat
            .table("customer")
            .unwrap()
            .column("c_mktsegment")
            .unwrap();
        assert!(seg.dict_code("BUILDING").is_some());
        let segs = seg.dictionary().unwrap().len();
        assert_eq!(segs, 5);
        let modes = cat.table("lineitem").unwrap().column("l_shipmode").unwrap();
        assert!(modes.dict_code("MAIL").is_some());
        assert!(modes.dict_code("SHIP").is_some());
        let types = cat.table("part").unwrap().column("p_type").unwrap();
        assert!(types
            .dictionary()
            .unwrap()
            .iter()
            .any(|t| t.starts_with("PROMO")));
        // The hash kernels reserve `i64::MIN` as their empty-slot marker and
        // refuse a key column that holds it: no TPC-H column does.
        for name in cat.table_names() {
            for col in cat.table(name).unwrap().columns() {
                let reserved = col.to_i64_vec().contains(&i64::MIN);
                assert!(!reserved, "{name}.{}", col.name());
            }
        }
    }

    #[test]
    fn returnflag_linestatus_consistent() {
        let cat = small();
        let li = cat.table("lineitem").unwrap();
        let rf = li.column("l_returnflag").unwrap();
        let ls = li.column("l_linestatus").unwrap();
        for i in 0..li.row_count() {
            let f = rf.value(i).unwrap().to_string();
            let s = ls.value(i).unwrap().to_string();
            if s == "O" {
                assert_eq!(f, "N", "open lines are not returned");
            } else {
                assert!(f == "A" || f == "R");
            }
        }
    }
}
