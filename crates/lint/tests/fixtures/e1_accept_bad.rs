// Fixture: rule E1 must fire on the socket `accept` — on a listener
// passed in, on a listener field of `self`, and through `self.accept()`
// when the impl's own `accept` is the one that blocks. Analyzed as
// `crates/net/src/event_loop.rs`.

pub struct Server {
    listener: std::net::TcpListener,
}

impl Server {
    pub fn take_peer(&self, listener: &std::net::TcpListener) {
        let _ = listener.accept();
    }

    pub fn take_own(&self) {
        let _ = self.listener.accept();
    }
}

pub struct Gate {
    inner: std::net::TcpListener,
}

impl Gate {
    fn accept(&self) {
        let _ = self.inner.accept();
    }

    pub fn admit(&self) {
        self.accept();
    }
}
