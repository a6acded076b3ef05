//! Host-side reference implementations of the evaluated queries.
//!
//! Written as plain row-at-a-time loops — slow but obviously correct — and
//! used by the test suite to validate every execution model and driver.
//! All money values are scaled integers: `revenue` sums
//! `extendedprice_cents × (100 − discount_pct)` (divide by 100 for
//! currency), Q6's sum is `extendedprice_cents × discount_pct`.

use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::{Catalog, StorageError};
use std::collections::HashMap;

/// One Q1 result row (aggregates in scaled integers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Q1Row {
    /// `l_returnflag`.
    pub returnflag: String,
    /// `l_linestatus`.
    pub linestatus: String,
    /// `sum(l_quantity)`.
    pub sum_qty: i64,
    /// `sum(l_extendedprice)` in cents.
    pub sum_base_price: i64,
    /// `sum(l_extendedprice * (100 - l_discount))` — divide by 100.
    pub sum_disc_price: i64,
    /// `sum(l_extendedprice * (100 - l_discount) * (100 + l_tax))` — /10⁴.
    pub sum_charge: i64,
    /// `sum(l_discount)` in percent points (for `avg_disc`).
    pub sum_disc: i64,
    /// `count(*)`.
    pub count: i64,
}

/// One Q3 result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Q3Row {
    /// `l_orderkey`.
    pub orderkey: i64,
    /// `sum(l_extendedprice * (100 - l_discount))` — divide by 100.
    pub revenue: i64,
    /// `o_orderdate` (days since epoch).
    pub orderdate: i64,
    /// `o_shippriority`.
    pub shippriority: i64,
}

/// One Q4 result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Q4Row {
    /// `o_orderpriority`.
    pub priority: String,
    /// `count(*)`.
    pub count: i64,
}

/// TPC-H Q1 (pricing summary report), validation parameters
/// (`DELTA = 90` ⇒ `l_shipdate <= 1998-09-02`). Rows ordered by
/// `(returnflag, linestatus)`.
pub fn q1(catalog: &Catalog) -> Result<Vec<Q1Row>, StorageError> {
    let li = catalog.table("lineitem")?;
    let cutoff = date_to_days(1998, 9, 2) as i64;
    let ship = li.column("l_shipdate")?.to_i64_vec();
    let qty = li.column("l_quantity")?.to_i64_vec();
    let price = li.column("l_extendedprice")?.to_i64_vec();
    let disc = li.column("l_discount")?.to_i64_vec();
    let tax = li.column("l_tax")?.to_i64_vec();
    let rf = li.column("l_returnflag")?;
    let ls = li.column("l_linestatus")?;
    let rf_codes = rf.to_i64_vec();
    let ls_codes = ls.to_i64_vec();
    let rf_dict = rf.dictionary().expect("dict column").to_vec();
    let ls_dict = ls.dictionary().expect("dict column").to_vec();

    let mut groups: HashMap<(i64, i64), Q1Row> = HashMap::new();
    for i in 0..ship.len() {
        if ship[i] > cutoff {
            continue;
        }
        let key = (rf_codes[i], ls_codes[i]);
        let row = groups.entry(key).or_insert_with(|| Q1Row {
            returnflag: rf_dict[key.0 as usize].clone(),
            linestatus: ls_dict[key.1 as usize].clone(),
            sum_qty: 0,
            sum_base_price: 0,
            sum_disc_price: 0,
            sum_charge: 0,
            sum_disc: 0,
            count: 0,
        });
        row.sum_qty += qty[i];
        row.sum_base_price += price[i];
        row.sum_disc_price += price[i] * (100 - disc[i]);
        row.sum_charge += price[i] * (100 - disc[i]) * (100 + tax[i]);
        row.sum_disc += disc[i];
        row.count += 1;
    }
    let mut rows: Vec<Q1Row> = groups.into_values().collect();
    rows.sort_by(|a, b| {
        (a.returnflag.as_str(), a.linestatus.as_str())
            .cmp(&(b.returnflag.as_str(), b.linestatus.as_str()))
    });
    Ok(rows)
}

/// TPC-H Q3 (shipping priority), validation parameters
/// (`SEGMENT = BUILDING`, `DATE = 1995-03-15`). Top-10 by
/// `(revenue desc, orderdate asc)`.
pub fn q3(catalog: &Catalog) -> Result<Vec<Q3Row>, StorageError> {
    let date = date_to_days(1995, 3, 15) as i64;
    let cust = catalog.table("customer")?;
    let seg = cust.column("c_mktsegment")?;
    let building = seg.dict_code("BUILDING").expect("segment exists") as i64;
    let seg_codes = seg.to_i64_vec();
    let custkeys = cust.column("c_custkey")?.to_i64_vec();
    let building_custs: std::collections::HashSet<i64> = custkeys
        .iter()
        .zip(&seg_codes)
        .filter(|(_, &s)| s == building)
        .map(|(&k, _)| k)
        .collect();

    let orders = catalog.table("orders")?;
    let o_key = orders.column("o_orderkey")?.to_i64_vec();
    let o_cust = orders.column("o_custkey")?.to_i64_vec();
    let o_date = orders.column("o_orderdate")?.to_i64_vec();
    let o_ship = orders.column("o_shippriority")?.to_i64_vec();
    let mut order_info: HashMap<i64, (i64, i64)> = HashMap::new();
    for i in 0..o_key.len() {
        if o_date[i] < date && building_custs.contains(&o_cust[i]) {
            order_info.insert(o_key[i], (o_date[i], o_ship[i]));
        }
    }

    let li = catalog.table("lineitem")?;
    let l_key = li.column("l_orderkey")?.to_i64_vec();
    let l_ship = li.column("l_shipdate")?.to_i64_vec();
    let l_price = li.column("l_extendedprice")?.to_i64_vec();
    let l_disc = li.column("l_discount")?.to_i64_vec();
    let mut revenue: HashMap<i64, i64> = HashMap::new();
    for i in 0..l_key.len() {
        if l_ship[i] > date && order_info.contains_key(&l_key[i]) {
            *revenue.entry(l_key[i]).or_insert(0) += l_price[i] * (100 - l_disc[i]);
        }
    }
    let mut rows: Vec<Q3Row> = revenue
        .into_iter()
        .map(|(k, rev)| {
            let (d, s) = order_info[&k];
            Q3Row {
                orderkey: k,
                revenue: rev,
                orderdate: d,
                shippriority: s,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .cmp(&a.revenue)
            .then(a.orderdate.cmp(&b.orderdate))
            .then(a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(10);
    Ok(rows)
}

/// TPC-H Q4 (order priority checking), validation parameters
/// (`DATE = 1993-07-01`, three months). Rows ordered by priority.
pub fn q4(catalog: &Catalog) -> Result<Vec<Q4Row>, StorageError> {
    let lo = date_to_days(1993, 7, 1) as i64;
    let hi = date_to_days(1993, 10, 1) as i64; // exclusive

    let li = catalog.table("lineitem")?;
    let l_key = li.column("l_orderkey")?.to_i64_vec();
    let l_commit = li.column("l_commitdate")?.to_i64_vec();
    let l_receipt = li.column("l_receiptdate")?.to_i64_vec();
    let late: std::collections::HashSet<i64> = l_key
        .iter()
        .zip(l_commit.iter().zip(&l_receipt))
        .filter(|(_, (c, r))| **c < **r)
        .map(|(&k, _)| k)
        .collect();

    let orders = catalog.table("orders")?;
    let o_key = orders.column("o_orderkey")?.to_i64_vec();
    let o_date = orders.column("o_orderdate")?.to_i64_vec();
    let prio = orders.column("o_orderpriority")?;
    let prio_codes = prio.to_i64_vec();
    let prio_dict = prio.dictionary().expect("dict column").to_vec();

    let mut counts: HashMap<i64, i64> = HashMap::new();
    for i in 0..o_key.len() {
        if o_date[i] >= lo && o_date[i] < hi && late.contains(&o_key[i]) {
            *counts.entry(prio_codes[i]).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<Q4Row> = counts
        .into_iter()
        .map(|(code, count)| Q4Row {
            priority: prio_dict[code as usize].clone(),
            count,
        })
        .collect();
    rows.sort_by(|a, b| a.priority.cmp(&b.priority));
    Ok(rows)
}

/// One Q12 result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Q12Row {
    /// `l_shipmode`.
    pub shipmode: String,
    /// Lines whose order is 1-URGENT or 2-HIGH.
    pub high_line_count: i64,
    /// All other lines.
    pub low_line_count: i64,
}

/// TPC-H Q12 (shipping modes and order priority), validation parameters
/// (`SHIPMODE IN ('MAIL','SHIP')`, `DATE = 1994-01-01`). Rows ordered by
/// ship mode.
pub fn q12(catalog: &Catalog) -> Result<Vec<Q12Row>, StorageError> {
    let lo = date_to_days(1994, 1, 1) as i64;
    let hi = date_to_days(1995, 1, 1) as i64; // exclusive

    let orders = catalog.table("orders")?;
    let o_key = orders.column("o_orderkey")?.to_i64_vec();
    let prio = orders.column("o_orderpriority")?;
    let prio_codes = prio.to_i64_vec();
    let prio_dict = prio.dictionary().expect("dict column").to_vec();
    let urgent = prio_dict.iter().position(|p| p == "1-URGENT").unwrap() as i64;
    let high = prio_dict.iter().position(|p| p == "2-HIGH").unwrap() as i64;
    let order_prio: HashMap<i64, i64> = o_key
        .iter()
        .copied()
        .zip(prio_codes.iter().copied())
        .collect();

    let li = catalog.table("lineitem")?;
    let l_key = li.column("l_orderkey")?.to_i64_vec();
    let mode = li.column("l_shipmode")?;
    let mode_codes = mode.to_i64_vec();
    let mode_dict = mode.dictionary().expect("dict column").to_vec();
    let mail = mode.dict_code("MAIL").expect("MAIL exists") as i64;
    let ship = mode.dict_code("SHIP").expect("SHIP exists") as i64;
    let commit = li.column("l_commitdate")?.to_i64_vec();
    let receipt = li.column("l_receiptdate")?.to_i64_vec();
    let shipd = li.column("l_shipdate")?.to_i64_vec();

    let mut counts: HashMap<i64, (i64, i64)> = HashMap::new();
    for i in 0..l_key.len() {
        if (mode_codes[i] == mail || mode_codes[i] == ship)
            && commit[i] < receipt[i]
            && shipd[i] < commit[i]
            && receipt[i] >= lo
            && receipt[i] < hi
        {
            let p = order_prio[&l_key[i]];
            let entry = counts.entry(mode_codes[i]).or_insert((0, 0));
            if p == urgent || p == high {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    let mut rows: Vec<Q12Row> = counts
        .into_iter()
        .map(|(code, (h, l))| Q12Row {
            shipmode: mode_dict[code as usize].clone(),
            high_line_count: h,
            low_line_count: l,
        })
        .collect();
    rows.sort_by(|a, b| a.shipmode.cmp(&b.shipmode));
    Ok(rows)
}

/// TPC-H Q14 (promotion effect), validation parameters
/// (`DATE = 1995-09-01`, one month). Returns
/// `(promo_revenue, total_revenue)` as scaled integers; the reported
/// percentage is `100 * promo / total`.
pub fn q14(catalog: &Catalog) -> Result<(i64, i64), StorageError> {
    let lo = date_to_days(1995, 9, 1) as i64;
    let hi = date_to_days(1995, 10, 1) as i64; // exclusive

    let part = catalog.table("part")?;
    let ptype = part.column("p_type")?;
    let type_codes = ptype.to_i64_vec();
    let type_dict = ptype.dictionary().expect("dict column").to_vec();
    let p_key = part.column("p_partkey")?.to_i64_vec();
    let promo: HashMap<i64, bool> = p_key
        .iter()
        .zip(&type_codes)
        .map(|(&k, &c)| (k, type_dict[c as usize].starts_with("PROMO")))
        .collect();

    let li = catalog.table("lineitem")?;
    let l_part = li.column("l_partkey")?.to_i64_vec();
    let shipd = li.column("l_shipdate")?.to_i64_vec();
    let price = li.column("l_extendedprice")?.to_i64_vec();
    let disc = li.column("l_discount")?.to_i64_vec();

    let mut promo_rev = 0i64;
    let mut total_rev = 0i64;
    for i in 0..l_part.len() {
        if shipd[i] >= lo && shipd[i] < hi {
            let rev = price[i] * (100 - disc[i]);
            total_rev += rev;
            if promo[&l_part[i]] {
                promo_rev += rev;
            }
        }
    }
    Ok((promo_rev, total_rev))
}

/// One Q10 (reduced) result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Q10Row {
    /// `o_custkey`.
    pub custkey: i64,
    /// `sum(l_extendedprice * (100 - l_discount))` — divide by 100.
    pub revenue: i64,
}

/// TPC-H Q10 (returned item reporting, reduced to the orders⋈lineitem
/// revenue core), validation parameters (`DATE = 1993-10-01`, one
/// quarter). Top-20 customers by `(revenue desc, custkey asc)`.
pub fn q10(catalog: &Catalog) -> Result<Vec<Q10Row>, StorageError> {
    let lo = date_to_days(1993, 10, 1) as i64;
    let hi = date_to_days(1994, 1, 1) as i64; // exclusive

    let orders = catalog.table("orders")?;
    let o_key = orders.column("o_orderkey")?.to_i64_vec();
    let o_cust = orders.column("o_custkey")?.to_i64_vec();
    let o_date = orders.column("o_orderdate")?.to_i64_vec();
    let mut order_cust: HashMap<i64, i64> = HashMap::new();
    for i in 0..o_key.len() {
        if o_date[i] >= lo && o_date[i] < hi {
            order_cust.insert(o_key[i], o_cust[i]);
        }
    }

    let li = catalog.table("lineitem")?;
    let l_key = li.column("l_orderkey")?.to_i64_vec();
    let flag = li.column("l_returnflag")?;
    let flag_codes = flag.to_i64_vec();
    let returned = flag.dict_code("R").expect("R flag exists") as i64;
    let price = li.column("l_extendedprice")?.to_i64_vec();
    let disc = li.column("l_discount")?.to_i64_vec();

    let mut revenue: HashMap<i64, i64> = HashMap::new();
    for i in 0..l_key.len() {
        if flag_codes[i] != returned {
            continue;
        }
        if let Some(&cust) = order_cust.get(&l_key[i]) {
            *revenue.entry(cust).or_insert(0) += price[i] * (100 - disc[i]);
        }
    }
    let mut rows: Vec<Q10Row> = revenue
        .into_iter()
        .map(|(custkey, revenue)| Q10Row { custkey, revenue })
        .collect();
    rows.sort_by(|a, b| b.revenue.cmp(&a.revenue).then(a.custkey.cmp(&b.custkey)));
    rows.truncate(20);
    Ok(rows)
}

/// TPC-H Q6 (revenue forecast), validation parameters
/// (`DATE = 1994-01-01`, `DISCOUNT = 0.06 ± 0.01`, `QUANTITY = 24`).
/// Returns `sum(l_extendedprice * l_discount)` as a scaled integer
/// (cents × percent; divide by 100 for currency).
pub fn q6(catalog: &Catalog) -> Result<i64, StorageError> {
    let lo = date_to_days(1994, 1, 1) as i64;
    let hi = date_to_days(1995, 1, 1) as i64; // exclusive
    let li = catalog.table("lineitem")?;
    let ship = li.column("l_shipdate")?.to_i64_vec();
    let disc = li.column("l_discount")?.to_i64_vec();
    let qty = li.column("l_quantity")?.to_i64_vec();
    let price = li.column("l_extendedprice")?.to_i64_vec();
    let mut sum = 0i64;
    for i in 0..ship.len() {
        if ship[i] >= lo && ship[i] < hi && (5..=7).contains(&disc[i]) && qty[i] < 24 {
            sum += price[i] * disc[i];
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TpchGenerator;

    fn catalog() -> Catalog {
        TpchGenerator::new(0.002, 11).generate()
    }

    #[test]
    fn q1_groups_and_ordering() {
        let rows = q1(&catalog()).unwrap();
        // At most 4 (rf, ls) combinations exist: (A,F) (N,F) (N,O) (R,F).
        assert!(!rows.is_empty() && rows.len() <= 4);
        for w in rows.windows(2) {
            assert!(
                (w[0].returnflag.as_str(), w[0].linestatus.as_str())
                    < (w[1].returnflag.as_str(), w[1].linestatus.as_str())
            );
        }
        for r in &rows {
            assert!(r.count > 0);
            assert!(r.sum_disc_price <= r.sum_base_price * 100);
            assert!(r.sum_charge >= r.sum_disc_price * 100);
        }
    }

    #[test]
    fn q3_top10_ordering() {
        let rows = q3(&catalog()).unwrap();
        assert!(rows.len() <= 10);
        for w in rows.windows(2) {
            assert!(
                w[0].revenue > w[1].revenue
                    || (w[0].revenue == w[1].revenue && w[0].orderdate <= w[1].orderdate)
            );
        }
    }

    #[test]
    fn q4_counts_positive() {
        let rows = q4(&catalog()).unwrap();
        assert!(!rows.is_empty() && rows.len() <= 5);
        for r in &rows {
            assert!(r.count > 0);
        }
        for w in rows.windows(2) {
            assert!(w[0].priority < w[1].priority);
        }
    }

    #[test]
    fn q6_positive() {
        let v = q6(&catalog()).unwrap();
        assert!(v > 0);
    }

    #[test]
    fn q12_two_modes_ordered() {
        let rows = q12(&catalog()).unwrap();
        assert!(rows.len() <= 2);
        for r in &rows {
            assert!(r.shipmode == "MAIL" || r.shipmode == "SHIP");
            assert!(r.high_line_count + r.low_line_count > 0);
        }
        if rows.len() == 2 {
            assert!(rows[0].shipmode < rows[1].shipmode);
        }
    }

    #[test]
    fn q10_top20_ordering() {
        let rows = q10(&catalog()).unwrap();
        assert!(!rows.is_empty() && rows.len() <= 20);
        for r in &rows {
            assert!(r.revenue > 0);
        }
        for w in rows.windows(2) {
            assert!(
                w[0].revenue > w[1].revenue
                    || (w[0].revenue == w[1].revenue && w[0].custkey < w[1].custkey)
            );
        }
    }

    #[test]
    fn q14_promo_fraction_sane() {
        let (promo, total) = q14(&catalog()).unwrap();
        assert!(total > 0);
        assert!(promo >= 0 && promo <= total);
        // ~3 of 9 types are PROMO; fraction should be loosely around 1/3.
        let frac = promo as f64 / total as f64;
        assert!(frac > 0.1 && frac < 0.6, "promo fraction {frac}");
    }
}
