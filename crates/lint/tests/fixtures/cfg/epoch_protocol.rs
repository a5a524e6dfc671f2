//! Fixture (D16): epoch-protocol violations and a clean twin. The
//! mutation tables treat `invalidate_customer`/`push_customer`/
//! `push_row` as derived-structure writes and any
//! `…instance….apply(…)` / `…to_mut().apply(…)` statement as the
//! epoch bump.

pub enum Op {
    Move { id: usize },
}

pub struct StaleCtx {
    instance: Inst,
    cache: Memo,
}

impl StaleCtx {
    /// BROKEN: the memo invalidation runs before the epoch bump, so
    /// the derived structure re-keys against the *old* epoch.
    pub fn apply(&mut self, delta: &Op) -> Result<(), ()> {
        match delta {
            Op::Move { id } => {
                self.cache.invalidate_customer(*id);
                self.instance.to_mut().apply(delta);
            }
        }
        Ok(())
    }
}

pub struct TornCtx {
    instance: Inst,
    cache: Memo,
}

impl TornCtx {
    /// BROKEN: an `Err` exit after the cache already mutated — the
    /// valid-prefix invariant says `Err` means "nothing changed".
    pub fn apply(&mut self, delta: &Op) -> Result<(), ()> {
        self.instance.to_mut().apply(delta);
        self.cache.push_customer(7);
        if self.cache.len() == 0 {
            return Err(());
        }
        Ok(())
    }
}

pub struct DoubleCtx {
    instance: Inst,
    rows: Csr,
}

impl DoubleCtx {
    /// BROKEN: two bumps dominate the row write — the instance is
    /// double-versioned relative to the derived structures.
    pub fn apply(&mut self, delta: &Op) -> Result<(), ()> {
        self.instance.to_mut().apply(delta);
        self.instance.to_mut().apply(delta);
        self.rows.push_row(0);
        Ok(())
    }
}

pub struct CleanCtx {
    instance: Inst,
    cache: Memo,
}

impl CleanCtx {
    /// Clean: validate (and error) first, bump exactly once, then
    /// mutate the derived structures.
    pub fn apply(&mut self, delta: &Op) -> Result<(), ()> {
        if !self.validate(delta) {
            return Err(());
        }
        self.instance.to_mut().apply(delta);
        match delta {
            Op::Move { id } => self.cache.invalidate_customer(*id),
        }
        Ok(())
    }

    fn validate(&self, _delta: &Op) -> bool {
        self.cache.len() > 0
    }
}
