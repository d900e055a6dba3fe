#!/usr/bin/env python3
"""SIGTERM ends confcall_serve's paced loop at once, not after its step.

Usage: test_serve_sigterm.py CONFCALL_SERVE

Starts the daemon with a 10-minute step period (--step-ms 600000),
sends SIGTERM once its port file appears and /readyz answers 200 (the
warm-up is over, so the paced loop is running), and exits 1 unless the
daemon exits 0 within 2 s and leaves its --snapshot-out file behind.
"""

import http.client
import os
import signal
import subprocess
import sys
import tempfile
import time

BOOT_TIMEOUT_S = 60.0  # sanitizer builds warm up slowly
EXIT_TIMEOUT_S = 2.0


def ready(port_file):
    """True once the port file names a port whose /readyz answers 200."""
    try:
        with open(port_file) as f:
            port = int(f.read())
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1)
        try:
            conn.request("GET", "/readyz")
            return conn.getresponse().status == 200
        finally:
            conn.close()
    except (OSError, ValueError):
        return False


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        port_file = os.path.join(work, "serve.port")
        snapshot = os.path.join(work, "serve.snapshot.json")
        daemon = subprocess.Popen(
            [sys.argv[1], "--steps", "0", "--step-ms", "600000", "--port", "0",
             "--port-file", port_file, "--snapshot-out", snapshot],
            stdout=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while not ready(port_file):
                if daemon.poll() is not None or time.monotonic() > deadline:
                    print("FAIL: the daemon never became ready")
                    return 1
                time.sleep(0.05)
            daemon.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            try:
                code = daemon.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"FAIL: still running {EXIT_TIMEOUT_S} s after SIGTERM")
                return 1
            print(f"exit {code} {time.monotonic() - sent:.3f} s after SIGTERM")
            if code != 0:
                print("FAIL: nonzero exit after SIGTERM")
                return 1
            if not (os.path.exists(snapshot) and os.path.getsize(snapshot) > 0):
                print("FAIL: no --snapshot-out file after SIGTERM")
                return 1
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
