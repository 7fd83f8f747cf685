package procnet

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
)

// A kernel's tcp and tcp6 files, as a Linux host prints them.
const (
	fixtureTCP = `  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode                                                     
   0: 0100007F:1F90 00000000:0000 0A 00000000:00000000 00:00000000 00000000  1000        0 28144 1 0000000000000000 100 0 0 10 0                     
   1: 0200000A:9C41 22D8B85D:01BB 01 00000000:00000000 02:000AFC51 00000000 10083        0 28145 2 0000000000000000 20 4 30 10 -1                    
`
	fixtureTCP6 = `  sl  local_address                         remote_address                        st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode
   0: 00000000000000000000000000000000:0016 00000000000000000000000000000000:0000 0A 00000000:00000000 00:00000000 00000000     0        0 19876 1 0000000000000000 100 0 0 10 0
   1: 000000FD000000000000000002000000:9C42 00280626010020020000000001000000:01BB 01 00000000:00000000 00:00000000 00000000 10090        0 28152 1 0000000000000000 20 4 0 10 -1
`
)

func fixtureRoot(t *testing.T) string {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "net"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"tcp": fixtureTCP, "tcp6": fixtureTCP6} {
		if err := os.WriteFile(filepath.Join(root, "net", name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestProcFSParsesFixtureTables(t *testing.T) {
	src := ProcFS{Root: fixtureRoot(t)}
	got, err := AppendParse(nil, src.AppendRender([]byte("stale"), TCP)[len("stale"):], TCP)
	if err != nil || len(got) != 2 {
		t.Fatalf("tcp: %d rows, %v", len(got), err)
	}
	if got[1].Local != ap("10.0.0.2:40001") || got[1].Remote != ap("93.184.216.34:443") ||
		got[1].State != StateEstablished || got[1].UID != 10083 || got[1].Inode != 28145 {
		t.Errorf("tcp row 1: %+v", got[1])
	}
	got, err = AppendParse(nil, src.AppendRender(nil, TCP6), TCP6)
	if err != nil || len(got) != 2 {
		t.Fatalf("tcp6: %d rows, %v", len(got), err)
	}
	if got[1].Local != ap("[fd00::2]:40002") || got[1].Remote != ap("[2606:2800:220:1::1]:443") || got[1].UID != 10090 {
		t.Errorf("tcp6 row 1: %+v", got[1])
	}

	r := NewReaderFrom(src, clock.NewReal(), ZeroParseCost(), 1)
	if all, err := r.ParseAll(); err != nil || len(all) != 4 {
		t.Errorf("ParseAll: %d rows, %v", len(all), err)
	}
}

// A table the mount lacks renders as the header alone: no rows, no
// error.
func TestProcFSMissingFileRendersHeader(t *testing.T) {
	src := ProcFS{Root: fixtureRoot(t)}
	text := src.AppendRender([]byte("kept"), UDP)
	if string(text) != "kept"+tableHeader {
		t.Fatalf("missing udp rendered %q", text)
	}
	if got, err := AppendParse(nil, text[len("kept"):], UDP); err != nil || len(got) != 0 {
		t.Fatalf("header-only table: %d rows, %v", len(got), err)
	}
}

// The host's own tables parse through ProcFS, where the host has them.
func TestProcFSParsesLiveHostTables(t *testing.T) {
	for _, p := range []Proto{TCP, TCP6} {
		if _, err := os.Stat(filepath.Join("/proc/net", p.String())); err != nil {
			t.Skipf("no /proc/net/%v on this host", p)
		}
		if _, err := AppendParse(nil, ProcFS{}.AppendRender(nil, p), p); err != nil {
			t.Errorf("live /proc/net/%v: %v", p, err)
		}
	}
}
