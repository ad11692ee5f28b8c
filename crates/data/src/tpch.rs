//! A scaled-down TPC-H subset with TPC-H's relative cardinalities.
//!
//! At scale factor 1 TPC-H holds 150k customers, 1.5M orders, 6M lineitems,
//! 200k parts and 800k partsupps. `TpchGen::new(scale_units, ...)` keeps
//! the same ratios with `scale_units` lineitems per 6000 (so
//! `scale_units = 1` ≈ a 1/1000 sample of SF1). PARTKEY in LINEITEM can be
//! drawn zipf(θ) — the paper's skewed configuration uses θ = 2 — while
//! PARTSUPP and PART keep one row (four rows) per part, so the key joins
//! remain foreign-key joins.

use squall_common::{DataType, Schema, SplitMix64, Tuple, Value, Zipf};

/// Column layouts (see the paper's queries; only the columns they touch).
pub fn customer_schema() -> Schema {
    Schema::of(&[
        ("custkey", DataType::Int),
        ("name", DataType::Str),
        ("mktsegment", DataType::Str),
    ])
}

pub fn orders_schema() -> Schema {
    // orderdate is a STRING on purpose: parsing it to a date is the cost
    // Figure 5 measures.
    Schema::of(&[
        ("orderkey", DataType::Int),
        ("custkey", DataType::Int),
        ("orderdate", DataType::Str),
        ("shippriority", DataType::Int),
    ])
}

pub fn lineitem_schema() -> Schema {
    Schema::of(&[
        ("orderkey", DataType::Int),
        ("partkey", DataType::Int),
        ("suppkey", DataType::Int),
        ("quantity", DataType::Int),
        ("extendedprice", DataType::Float),
        ("shipdate", DataType::Str),
    ])
}

pub fn partsupp_schema() -> Schema {
    Schema::of(&[
        ("partkey", DataType::Int),
        ("suppkey", DataType::Int),
        ("supplycost", DataType::Float),
    ])
}

pub fn part_schema() -> Schema {
    Schema::of(&[("partkey", DataType::Int), ("name", DataType::Str), ("ptype", DataType::Str)])
}

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const TYPES: [&str; 4] = ["ECONOMY", "STANDARD", "PROMO", "LARGE"];

/// The generated database.
#[derive(Debug, Clone)]
pub struct TpchData {
    pub customer: Vec<Tuple>,
    pub orders: Vec<Tuple>,
    pub lineitem: Vec<Tuple>,
    pub partsupp: Vec<Tuple>,
    pub part: Vec<Tuple>,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchGen {
    /// 1 unit = 6000 lineitems / 1500 orders / 150 customers / 200 parts /
    /// 800 partsupps (TPC-H ratios).
    pub scale_units: f64,
    /// Zipf exponent for LINEITEM.PARTKEY; 0.0 = uniform (the paper's
    /// skewed runs use 2.0).
    pub partkey_theta: f64,
    pub seed: u64,
}

impl TpchGen {
    pub fn new(scale_units: f64, partkey_theta: f64, seed: u64) -> TpchGen {
        assert!(scale_units > 0.0);
        TpchGen { scale_units, partkey_theta, seed }
    }

    fn n_lineitem(&self) -> usize {
        (6000.0 * self.scale_units) as usize
    }

    fn n_orders(&self) -> usize {
        (1500.0 * self.scale_units) as usize
    }

    fn n_customer(&self) -> usize {
        (150.0 * self.scale_units).max(10.0) as usize
    }

    fn n_part(&self) -> usize {
        (200.0 * self.scale_units).max(8.0) as usize
    }

    fn date_string(rng: &mut SplitMix64) -> String {
        let year = 1992 + rng.next_below(7) as i32;
        let month = 1 + rng.next_below(12) as u32;
        let day = 1 + rng.next_below(28) as u32;
        format!("{year:04}-{month:02}-{day:02}")
    }

    /// Generate everything.
    pub fn generate(&self) -> TpchData {
        let mut rng = SplitMix64::new(self.seed);
        let n_cust = self.n_customer();
        let n_orders = self.n_orders();
        let n_li = self.n_lineitem();
        let n_part = self.n_part();
        let n_supp = (10.0 * self.scale_units).max(4.0) as usize;

        let customer: Vec<Tuple> = (0..n_cust)
            .map(|c| {
                Tuple::new(vec![
                    Value::Int(c as i64),
                    Value::str(format!("Customer#{c:09}")),
                    Value::str(SEGMENTS[rng.next_below(SEGMENTS.len())]),
                ])
            })
            .collect();

        let orders: Vec<Tuple> = (0..n_orders)
            .map(|o| {
                Tuple::new(vec![
                    Value::Int(o as i64),
                    Value::Int(rng.next_below(n_cust) as i64),
                    Value::str(Self::date_string(&mut rng)),
                    Value::Int(rng.next_below(5) as i64),
                ])
            })
            .collect();

        // Skewable partkey. TPC-H gives each part 4 suppliers; suppkey is a
        // deterministic function of (partkey, slot) — so partkey skew
        // induces correlated suppkey skew, like the real generator.
        let zipf = if self.partkey_theta > 0.0 {
            Some(Zipf::new(n_part, self.partkey_theta))
        } else {
            None
        };
        let draw_part = |rng: &mut SplitMix64| -> i64 {
            match &zipf {
                Some(z) => z.sample(rng) as i64,
                None => rng.next_below(n_part) as i64,
            }
        };
        let suppkey_of = |partkey: i64, slot: usize| -> i64 {
            (partkey as usize + slot * (n_supp / 4).max(1)) as i64 % n_supp as i64
        };

        let lineitem: Vec<Tuple> = (0..n_li)
            .map(|_| {
                let partkey = draw_part(&mut rng);
                let slot = rng.next_below(4);
                Tuple::new(vec![
                    Value::Int(rng.next_below(n_orders) as i64),
                    Value::Int(partkey),
                    Value::Int(suppkey_of(partkey, slot)),
                    Value::Int(1 + rng.next_below(50) as i64),
                    Value::Float((100 + rng.next_below(99_900)) as f64 / 100.0),
                    Value::str(Self::date_string(&mut rng)),
                ])
            })
            .collect();

        let partsupp: Vec<Tuple> = (0..n_part)
            .flat_map(|p| {
                let mut rows = Vec::with_capacity(4);
                for slot in 0..4 {
                    rows.push(Tuple::new(vec![
                        Value::Int(p as i64),
                        Value::Int(suppkey_of(p as i64, slot)),
                        Value::Float((1 + rng.next_below(100_000)) as f64 / 100.0),
                    ]));
                }
                rows
            })
            .collect();

        let part: Vec<Tuple> = (0..n_part)
            .map(|p| {
                Tuple::new(vec![
                    Value::Int(p as i64),
                    Value::str(format!("Part#{p:09}")),
                    Value::str(TYPES[rng.next_below(TYPES.len())]),
                ])
            })
            .collect();

        TpchData { customer, orders, lineitem, partsupp, part }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::Date;

    #[test]
    fn cardinalities_follow_tpch_ratios() {
        let data = TpchGen::new(1.0, 0.0, 1).generate();
        assert_eq!(data.lineitem.len(), 6000);
        assert_eq!(data.orders.len(), 1500);
        assert_eq!(data.customer.len(), 150);
        assert_eq!(data.part.len(), 200);
        assert_eq!(data.partsupp.len(), 800);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpchGen::new(0.2, 2.0, 7).generate();
        let b = TpchGen::new(0.2, 2.0, 7).generate();
        assert_eq!(a.lineitem, b.lineitem);
        let c = TpchGen::new(0.2, 2.0, 8).generate();
        assert_ne!(a.lineitem, c.lineitem);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let gen = TpchGen::new(0.5, 2.0, 3);
        let data = gen.generate();
        let n_part = gen.n_part() as i64;
        let n_orders = gen.n_orders() as i64;
        let n_cust = gen.n_customer() as i64;
        for li in &data.lineitem {
            assert!((0..n_orders).contains(&li.get(0).as_int().unwrap()));
            assert!((0..n_part).contains(&li.get(1).as_int().unwrap()));
        }
        for o in &data.orders {
            assert!((0..n_cust).contains(&o.get(1).as_int().unwrap()));
        }
        // Every lineitem (partkey, suppkey) pair exists in partsupp — the
        // TPCH9-Partial join is a real FK join.
        let ps: std::collections::HashSet<(i64, i64)> = data
            .partsupp
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        for li in &data.lineitem {
            let key = (li.get(1).as_int().unwrap(), li.get(2).as_int().unwrap());
            assert!(ps.contains(&key), "dangling lineitem FK {key:?}");
        }
    }

    #[test]
    fn zipf_partkey_is_skewed_uniform_is_not() {
        let skewed = TpchGen::new(1.0, 2.0, 5).generate();
        let hot = skewed.lineitem.iter().filter(|t| t.get(1).as_int().unwrap() == 0).count() as f64
            / skewed.lineitem.len() as f64;
        assert!(hot > 0.5, "zipf(2) top part should take >50% of lineitems, got {hot}");
        let uniform = TpchGen::new(1.0, 0.0, 5).generate();
        let hot_u = uniform.lineitem.iter().filter(|t| t.get(1).as_int().unwrap() == 0).count()
            as f64
            / uniform.lineitem.len() as f64;
        assert!(hot_u < 0.05);
    }

    #[test]
    fn dates_parse() {
        let data = TpchGen::new(0.1, 0.0, 9).generate();
        for o in &data.orders {
            let s = o.get(2).as_str().unwrap();
            Date::parse(s).expect("valid date string");
        }
    }

    #[test]
    fn schemas_match_generated_arity() {
        let data = TpchGen::new(0.1, 0.0, 2).generate();
        assert_eq!(data.customer[0].arity(), customer_schema().arity());
        assert_eq!(data.orders[0].arity(), orders_schema().arity());
        assert_eq!(data.lineitem[0].arity(), lineitem_schema().arity());
        assert_eq!(data.partsupp[0].arity(), partsupp_schema().arity());
        assert_eq!(data.part[0].arity(), part_schema().arity());
    }
}
