/*
 * Fake adb client. It forwards its argv to the device emulator that the
 * benchmark runs in-process, on the 127.0.0.1 port named by the
 * PERFBENCH_ADB_PORT environment variable, and prints what the emulator
 * answers.
 *
 * Wire format: the client sends the argument count and then every argument,
 * each NUL-terminated. The emulator answers with one header line
 * "<exit code> <payload bytes>", then the payload, then closes. The payload
 * goes to stdout on exit code 0 and to stderr otherwise.
 *
 * It is native code because the program under test starts one adb process
 * per device call: a Python client costs tens of milliseconds per call and
 * a bash one about twice what this costs, which would drown the latency
 * model in start-up time.
 */
#include <arpa/inet.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

static int write_all(int fd, const char *buf, size_t len)
{
    while (len > 0) {
        ssize_t n = write(fd, buf, len);
        if (n <= 0)
            return -1;
        buf += n;
        len -= (size_t)n;
    }
    return 0;
}

int main(int argc, char **argv)
{
    const char *port = getenv("PERFBENCH_ADB_PORT");
    if (port == NULL) {
        fputs("adb: PERFBENCH_ADB_PORT is not set\n", stderr);
        return 255;
    }
    struct sockaddr_in addr = {0};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((unsigned short)atoi(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || connect(fd, (struct sockaddr *)&addr, sizeof addr) != 0) {
        perror("adb: connect");
        return 255;
    }

    size_t size = 16;
    for (int i = 1; i < argc; i++)
        size += strlen(argv[i]) + 1;
    char *msg = malloc(size);
    if (msg == NULL)
        return 255;
    char *p = msg + sprintf(msg, "%d", argc - 1) + 1;
    for (int i = 1; i < argc; i++) {
        size_t n = strlen(argv[i]) + 1;
        memcpy(p, argv[i], n);
        p += n;
    }
    if (write_all(fd, msg, (size_t)(p - msg)) != 0)
        return 255;
    free(msg);

    static char buf[65536];
    size_t have = 0;
    char *newline = NULL;
    while (newline == NULL) {
        if (have == sizeof buf - 1)
            return 255;
        ssize_t n = read(fd, buf + have, sizeof buf - 1 - have);
        if (n <= 0)
            return 255;
        have += (size_t)n;
        newline = memchr(buf, '\n', have);
    }
    int code = atoi(buf);
    int out = code == 0 ? STDOUT_FILENO : STDERR_FILENO;
    size_t head = (size_t)(newline - buf) + 1;
    if (write_all(out, buf + head, have - head) != 0)
        return 255;
    for (ssize_t n; (n = read(fd, buf, sizeof buf)) > 0;)
        if (write_all(out, buf, (size_t)n) != 0)
            return 255;
    close(fd);
    return code;
}
