// Fixture: rule E1 must stay quiet — `self.accept(…)` calls a method of
// the enclosing impl (a broadcast layer's own bookkeeping), not the
// socket `accept` of the same name. Analyzed as
// `crates/net/src/event_loop.rs`.

pub struct Relay {
    seen: Vec<u64>,
}

impl Relay {
    fn accept(&mut self, id: u64) -> bool {
        if self.seen.contains(&id) {
            return false;
        }
        self.seen.push(id);
        true
    }
}

impl Handler for Relay {
    fn on_frame(&mut self, id: u64) {
        if self.accept(id) {
            self.seen.sort();
        }
    }
}
