package engine

// Engine lifecycle: thread startup and teardown.

// Start launches the engine threads: the workers, the TunReader, and
// (for queueWrite schemes) the TunWriter. It also performs the
// one-time addDisallowedApplication when configured (§3.5.2: "the call
// is best invoked during the initialization of MopEye").
func (e *Engine) Start() {
	e.mu.Lock()
	if e.running.Load() {
		e.mu.Unlock()
		return
	}
	e.running.Store(true)
	e.mu.Unlock()

	if e.cfg.Protect == ProtectDisallowed {
		e.prov.AddDisallowedApplication()
	}
	e.dev.SetBlocking(e.cfg.ReadMode == ReadBlocking)

	e.udp.start()
	for _, w := range e.workers {
		e.wg.Add(1)
		go e.runWorker(w)
	}
	e.wg.Add(1)
	go e.tunReader()
	if e.writeQ != nil {
		e.wg.Add(1)
		go e.tunWriter()
	}
}

// Stop shuts the engine down. A dummy packet releases the blocked
// tunnel read (§3.1); the reader discards it, closes the packet lanes,
// the workers drain their rings and exit, and all selectors and
// external sockets are closed.
//
// It also waits for every socket-connect thread admitted past its
// connect() (admitConnect), so the store then holds the record of every
// connect the app saw succeed. It never waits on a dial in progress:
// closing the flows below closes its channel.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.running.Load() {
		e.mu.Unlock()
		return
	}
	e.running.Store(false)
	e.mu.Unlock()

	// Release a TunReader blocked in read() by injecting a dummy packet
	// — MopEye's own trick (self-sent below 5.0, DownloadManager-
	// triggered on 5.0+; the bytes are identical from the reader's
	// perspective). The inject fails only on a full or closed device,
	// and neither leaves a read blocked.
	_ = e.dev.InjectOutbound([]byte{0})
	if e.writeQ != nil {
		e.writeQ.close()
	}
	e.wg.Wait()
	e.connect.Wait()
	// The packet-processing threads are gone, so no new UDP jobs can be
	// enqueued; stopping the relay closes its sessions and pool.
	e.udp.stop()
	for _, w := range e.workers {
		w.sel.Close()
	}

	for _, c := range e.flows.Drain() {
		e.removeClient(c)
		if ch := c.Ch(); ch != nil {
			ch.Close()
		}
	}
}

// admitConnect admits a socket-connect thread whose connect() returned
// to the rest of its work, or reports false once Stop has begun; an
// admitted thread calls e.connect.Done when it finishes.
func (e *Engine) admitConnect() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running.Load() {
		e.connect.Add(1)
		return true
	}
	return false
}
